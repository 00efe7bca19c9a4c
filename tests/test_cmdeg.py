"""Sign-pattern scanning and degree bisection on known functions."""

import gc
import weakref
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
from oracles import CoarseStop
from cmcheck import (
    DEFAULT_PRECISION,
    BracketError,
    LogGrid,
    NumericFailure,
    WorkingPrecision,
    check_sign_pattern,
    estimate_cm_degree,
    h_derivative,
    h_function,
    hk_table,
    tail_scaled_derivatives,
)
from cmcheck.cmdeg import DEFAULT_DEGREE_GRID, ScaledTailOracle, h_oracle

PREC = DEFAULT_PRECISION

SMALL_GRID = LogGrid(0.1, 10, 25)


def exp_decay_oracle(n, t):
    # f = e^-t: f^(n) = (-1)^n e^-t, completely monotonic
    return (-1) ** n * mp.exp(-t)


def exp_growth_oracle(n, t):
    # f = e^t: every derivative positive, fails the pattern at order 1
    return mp.exp(t)


def pinned_floor():
    """(s, prec): s = -d/dt [t^(5/4) H_0](100) and PREC with noise floor -s."""
    with PREC.workdps():
        signed = -ScaledTailOracle(0, 2, PREC).at("1.25")(1, 100)

    class PinnedFloor(WorkingPrecision):
        @property
        def noise_floor(self):
            return -signed

    return signed, PinnedFloor(PREC.digits)


def outcome(scan):
    """scan()'s result, or the operation, detail and inputs of its NumericFailure."""
    try:
        return scan()
    except NumericFailure as failure:
        return failure.operation, failure.detail, failure.inputs


class TestLogGrid:
    def test_exact_endpoints_and_shape(self):
        grid = LogGrid(0.5, 32, 7)
        with PREC.workdps():
            values = grid.values(PREC)
            assert len(values) == 7
            assert values[0] == mp.mpf("0.5")
            assert values[-1] == 32
            assert all(a < b for a, b in zip(values, values[1:]))
            # constant ratio to working accuracy
            ratios = [values[j + 1] / values[j] for j in range(6)]
            assert max(ratios) - min(ratios) < mp.mpf("1e-55")

    def test_string_bounds(self):
        grid = LogGrid("1e-2", "1e2", 5)
        with PREC.workdps():
            values = grid.values(PREC)
            assert values[0] == mp.mpf("0.01")
            assert abs(values[2] - 1) < mp.mpf("1e-60")

    def test_validation(self):
        with pytest.raises(ValueError):
            LogGrid(1, 10, 1)
        with pytest.raises(ValueError):
            LogGrid(0, 10, 5)
        with pytest.raises(ValueError):
            LogGrid(10, 10, 5)

    def test_default_grid(self):
        assert DEFAULT_DEGREE_GRID == LogGrid("1e-2", "1e6", 200)


class TestCheckSignPattern:
    def test_completely_monotonic_passes(self):
        report = check_sign_pattern(exp_decay_oracle, SMALL_GRID, 4, PREC)
        assert report.passed
        assert report.violation is None
        assert report.evaluations == 5 * 25
        # smallest signed value is e^-t at the top of the grid
        with PREC.workdps():
            assert abs(report.min_signed - mp.exp(mp.mpf(-10))) < mp.mpf("1e-40")
        assert report.argmin_t == 10

    def test_growth_fails_at_first_order_and_point(self):
        report = check_sign_pattern(exp_growth_oracle, SMALL_GRID, 4, PREC)
        assert not report.passed
        assert report.violation.order == 1
        assert report.violation.t == SMALL_GRID.values(PREC)[0]

    def test_oracle_errors_become_numeric_failures(self):
        def broken(n, t):
            raise ValueError("no value here")

        with pytest.raises(NumericFailure, match="check_sign_pattern"):
            check_sign_pattern(broken, SMALL_GRID, 2, PREC)

    @pytest.mark.parametrize("value", (mp.nan, mp.inf, -mp.inf))
    def test_non_finite_oracle_values_become_numeric_failures(self, value):
        with pytest.raises(NumericFailure, match="oracle failed") as excinfo:
            check_sign_pattern(lambda n, t: value, SMALL_GRID, 2, PREC)
        assert excinfo.value.inputs["n"] == 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            check_sign_pattern(exp_decay_oracle, SMALL_GRID, -1, PREC)


class TestDegreeBisection:
    def test_k0_bracket_is_exact_dyadic(self):
        estimate = estimate_cm_degree(0, prec=PREC)
        assert estimate.k == 0
        assert estimate.r_lo == 1
        assert estimate.r_hi == mp.mpf(1) + mp.mpf(1) / 32
        assert estimate.width == mp.mpf(1) / 32
        assert estimate.bisections == 6
        assert estimate.series == DEFAULT_DEGREE_GRID.points

    def test_one_table_per_grid_point(self):
        # every bisection step reuses the tables of the first scan
        grid = LogGrid(1e-2, 1e6, 24)
        for k in range(5):
            estimate = estimate_cm_degree(k, grid=grid, prec=PREC)
            assert estimate.bisections == 6
            assert estimate.series == grid.points

    def test_violation_location_above_bracket(self):
        # just above the bracket the first failing order is 1 and the witness
        # sits at moderate t, not at the extremes of the grid
        cache = {}

        def oracle(n, t):
            vals = cache.get(t)
            if vals is None:
                vals = tail_scaled_derivatives(0, "1.25", t, 3, PREC)
                cache[t] = vals
            return vals[n]

        report = check_sign_pattern(oracle, LogGrid(1e-2, 1e6, 100), 3, PREC)
        assert not report.passed
        assert report.violation.order == 1
        assert report.violation.t > 1

    def test_bracket_must_straddle(self):
        small = LogGrid(1e-2, 1e4, 60)
        with pytest.raises(BracketError, match="already fails"):
            estimate_cm_degree(0, search=(5, 6), grid=small, max_order=4, prec=PREC)
        with pytest.raises(BracketError, match="still passes"):
            estimate_cm_degree(0, search=(-3, -2), grid=small, max_order=4, prec=PREC)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_cm_degree(-1, prec=PREC)
        with pytest.raises(ValueError):
            estimate_cm_degree(0, search=(2, 1), prec=PREC)
        with pytest.raises(ValueError):
            estimate_cm_degree(0, tol=0, prec=PREC)

    def test_estimate_fields(self):
        estimate = estimate_cm_degree(
            1, search=(1.5, 2.5), tol="0.25", grid=SMALL_GRID, max_order=3, prec=PREC
        )
        assert estimate.r_lo <= 2 <= estimate.r_hi
        assert estimate.width <= mp.mpf("0.25")
        assert estimate.grid == SMALL_GRID
        assert estimate.max_order == 3


class TestScaledTailOracle:
    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_leibniz_matches_termwise_route(self, digits):
        # the Leibniz sum over the r = 0 table against the independent
        # termwise series at each r: same verdict, agreement to digits - 3
        prec = WorkingPrecision(digits)
        grid = LogGrid(1e-2, 1e6, 60)
        with prec.workdps():
            floor = prec.noise_floor
            rel = mp.mpf(10) ** (3 - digits)
            for k in range(5):
                tables = ScaledTailOracle(k, 6, prec)
                for r in (k, k + 1, k + Fraction(33, 32), k + Fraction(5, 4), k + 2):
                    oracle = tables.at(r)
                    for t in grid.values(prec):
                        termwise = oracles.termwise_table(k, r, t, prec)
                        for n in range(7):
                            got = oracle(n, t)
                            want = termwise[n]
                            sign = (-1) ** n
                            assert (sign * got < -floor) == (sign * want < -floor)
                            assert abs(got - want) <= rel * max(abs(want), floor)
                assert tables.series == grid.points

    @pytest.mark.parametrize("digits", (30, 50))
    def test_radius_is_honest(self, digits):
        # the ball of the integer bracket holds the termwise route at three
        # times the digits, on a scan grid and at t = 1e-3, where the sums
        # are rescaled and the ratio rule sets the stop
        prec = WorkingPrecision(digits)
        fine = WorkingPrecision(3 * digits)
        with prec.workdps():
            points = LogGrid(1e-2, 1e6, 12).values(prec) + (mp.mpf("1e-3"),)
        for k in range(5):
            tables = ScaledTailOracle(k, 6, prec)
            for r in (k + 1, k + Fraction(33, 32), Fraction(1, 3), Fraction(-1, 2)):
                oracle = tables.at(r)
                for t in points:
                    exact = tail_scaled_derivatives(k, oracle.r, t, 6, fine)
                    for n in range(7):
                        value, radius = oracle.ball(n, t)
                        assert oracle(n, t) == value
                        with fine.workdps():
                            assert abs(value - exact[n]) <= radius, (k, r, n, t)
                            # and narrow enough to decide the scan's test
                            signed = (-1) ** n * exact[n]
                            assert radius < abs(signed + prec.noise_floor)

    def test_radius_is_honest_where_the_tail_dominates(self):
        # under a coarse stop the tail bound carries the radius and is nearly
        # tight, so a radius that undercounts the tail, or a stop that lets
        # the term ratio exceed 1/2, shows here
        prec = CoarseStop(30)
        fine = WorkingPrecision(90)
        with prec.workdps():
            points = LogGrid("0.05", 50, 12).values(prec)
        for k in range(3):
            tables = ScaledTailOracle(k, 6, prec)
            rs = (k + 1, k + Fraction(33, 32), k + 2, Fraction(1, 3), Fraction(-1, 2))
            for r in rs:
                oracle = tables.at(r)
                for t in points:
                    exact = tail_scaled_derivatives(k, oracle.r, t, 6, fine)
                    for n in range(7):
                        value, radius = oracle.ball(n, t)
                        with fine.workdps():
                            assert abs(value - exact[n]) <= radius, (k, r, n, t)

    def test_guard_refuses_a_zero_margin(self):
        # at r = 5/4 the first derivative of t^r H_0 is positive at t = 100,
        # so the bracket is settled negative, but its signed value pinned at
        # exactly -noise_floor leaves a margin no radius can decide
        signed, pinned = pinned_floor()
        assert signed < 0
        oracle = ScaledTailOracle(0, 2, pinned).at("1.25")
        assert oracle(0, 100) > 0
        assert oracle(1, "0.5") < 0
        with pytest.raises(NumericFailure, match="ScaledTailOracle") as excinfo:
            oracle(1, 100)
        assert excinfo.value.inputs["n"] == 1

    def test_undecided_bracket_is_refused(self):
        # at r = -t H_0'(t) / H_0(t) the first derivative of t^r H_0 vanishes
        # at t = 32, so the bracket sits inside its radius
        with PREC.workdps():
            h0, h1 = hk_table(0, 32, 1, PREC)
            root = -32 * h1 / h0
        value, radius = ScaledTailOracle(0, 1, PREC).at(root).ball(1, 32)
        assert abs(value) <= radius < PREC.noise_floor

        # a stop threshold of 1/4 leaves the truncated tails in the radius,
        # far above the floor; brackets of either sign inside it are refused
        coarse = CoarseStop(PREC.digits)
        with PREC.workdps():
            h0, h1 = hk_table(0, 32, 1, coarse)
            root = -32 * h1 / h0
            shift = root * mp.mpf("1e-20")
            near = (root - shift, root + shift)
        values = []
        for r in near:
            oracle = ScaledTailOracle(0, 1, coarse).at(r)
            value, radius = oracle.ball(1, 32)
            assert abs(value) <= radius
            values.append(value > 0)
            with pytest.raises(NumericFailure, match="noise floor"):
                oracle(1, 32)
        assert values == [False, True]

    def test_tables_are_freed_without_the_cycle_collector(self):
        # the tables must not outlive their last scan by a reference cycle
        gc.disable()
        try:
            tables = ScaledTailOracle(0, 2, PREC)
            check_sign_pattern(tables.at(1), SMALL_GRID, 2, PREC)
            alive = weakref.ref(tables)
            del tables
            assert alive() is None
        finally:
            gc.enable()

    def test_order_beyond_table_is_rejected(self):
        oracle = ScaledTailOracle(0, 2, PREC).at(1)
        with pytest.raises(ValueError):
            oracle(3, 2)


class TestSignPredicate:
    GRID = LogGrid(1e-2, 1e6, 24)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_predicate_is_the_scan_verdict(self, digits):
        prec = WorkingPrecision(digits)
        ts = self.GRID.values(prec)
        for k in range(5):
            tables = ScaledTailOracle(k, 6, prec)
            rs = (k, k + 1, k + 1 + Fraction(1, 2**60), k + Fraction(33, 32),
                  k + Fraction(5, 4), k + 2, Fraction(1, 3), Fraction(-1, 2))
            for r in rs:
                want = check_sign_pattern(tables.at(r), self.GRID, 6, prec).passed
                assert tables.at(r).passes(ts) == want, (k, r)
                if r != k + 1 + Fraction(1, 2**60):
                    assert want == (r <= k + 1), (k, r)
            # a passing scan settles every sign in integers: it takes no t^r
            # and builds no factor
            fresh = ScaledTailOracle(k, 6, prec)
            oracle = fresh.at(k + 1)
            assert oracle.passes(ts)
            assert oracle._points == {}
            assert fresh._factors == {}
            # a failing one builds the factors of the points it values
            assert not fresh.at(k + 2).passes(ts)
            assert fresh._factors and set(fresh._factors) <= set(ts)

    def test_rows_are_kept_by_position(self):
        # the rows list carries each point's sums from one walk to the next,
        # so later walks look up no table by t
        prec = WorkingPrecision(30)
        ts = self.GRID.values(prec)
        for k in (0, 3):
            tables = ScaledTailOracle(k, 6, prec)
            rows = []
            assert not tables.at(k + 2).passes(ts, rows)
            assert len(rows) == tables.series <= len(ts)
            assert tables.at(k + 1).passes(ts, rows)
            assert len(rows) == tables.series == len(ts)
            for t, (sums, radii) in zip(ts, rows):
                core = tables.table(t)
                assert (sums, radii) == (core.sums, core.radii)

            def refuse(t):
                raise AssertionError(f"table looked up at {t}")

            tables.table = refuse
            # r = k+1 settles every sign in integers, so it needs only the rows
            assert tables.at(k + 1).passes(ts, rows)

    def test_predicate_raises_the_scan_failures(self):
        _, pinned = pinned_floor()
        coarse = CoarseStop(PREC.digits)
        with PREC.workdps():
            h0, h1 = hk_table(0, 32, 1, coarse)
            root = -32 * h1 / h0
        # the zero margin at (1, 100), the undecided bracket at (1, 32) and
        # a first table past the series budget: (k, max_order, r, grid, prec)
        cases = (
            (0, 2, "1.25", LogGrid("0.5", 100, 2), pinned),
            (0, 1, root, LogGrid(32, 1e3, 2), coarse),
            (0, 6, 1, LogGrid("1e-7", 1, 2), PREC),
        )
        operations = []
        for k, max_order, r, grid, prec in cases:
            want = outcome(
                lambda: check_sign_pattern(
                    ScaledTailOracle(k, max_order, prec).at(r), grid, max_order, prec
                )
            )
            ts = grid.values(prec)
            got = outcome(lambda: ScaledTailOracle(k, max_order, prec).at(r).passes(ts))
            assert got == want
            operations.append(want[0])
        assert operations == [
            "ScaledTailOracle",
            "ScaledTailOracle",
            "tail_scaled_derivatives",
        ]

    def test_bracket_matches_the_termwise_bisection(self):
        # the same bisection driven by check_sign_pattern over the termwise
        # series summed afresh at each r
        prec = WorkingPrecision(30)
        grid = LogGrid(1e-2, 1e6, 12)
        for k in range(5):

            def passes(r):
                oracle = oracles.termwise_oracle(k, r, prec)
                return check_sign_pattern(oracle, grid, 6, prec).passed

            lo, hi = Fraction(k), Fraction(k + 2)
            assert passes(lo) and not passes(hi)
            steps = 0
            while hi - lo > Fraction(1, 32):
                mid = (lo + hi) / 2
                if passes(mid):
                    lo = mid
                else:
                    hi = mid
                steps += 1
            estimate = estimate_cm_degree(k, grid=grid, prec=prec)
            with prec.workdps():
                assert estimate.r_lo == oracles.mpf_from_fraction(lo)
                assert estimate.r_hi == oracles.mpf_from_fraction(hi)
            assert estimate.bisections == steps


class TestHOracle:
    def test_one_table_per_grid_point(self):
        grid = LogGrid(0.05, 1e3, 12)
        oracle = h_oracle(8, PREC)
        report = check_sign_pattern(oracle, grid, 8, PREC)
        assert report.passed
        assert report.evaluations == 9 * 12
        assert oracle.series == 12

    def test_values_are_the_h_engines(self):
        oracle = h_oracle(3, PREC)
        with PREC.workdps():
            rel = mp.mpf(10) ** (3 - PREC.digits)
            assert abs(oracle(0, "0.7") - h_function("0.7", PREC)) <= rel
            for n in (1, 2, 3):
                want = h_derivative(n, "0.7", PREC)
                assert abs(oracle(n, "0.7") - want) <= rel * abs(want)
        assert oracle.series == 1

    def test_order_beyond_table_is_rejected(self):
        with pytest.raises(ValueError):
            h_oracle(2, PREC)(3, 1)
        with pytest.raises(ValueError):
            h_oracle(-1, PREC)
