"""Sign-pattern scanning and degree bisection on known functions."""

import gc
import weakref
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from oracles import CoarseStop, tail_scaled_derivatives
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
    h_table,
    hk_table,
)
from cmcheck import cmdeg
from cmcheck.cmdeg import (
    DEFAULT_DEGREE_GRID,
    DEFAULT_H_GRID,
    HOracle,
    ScaledDerivative,
    ScaledTailOracle,
    ball_minimum,
)
from cmcheck.laurent import HkSums, _hk_exp_side, _lah_rows, h_balls, h_sign_balls, hk_sums
from cmcheck.specfun import _MAX_RAISES, _dyadic, ball_sign

PREC = DEFAULT_PRECISION

SMALL_GRID = LogGrid(0.1, 10, 25)


def exp_decay_oracle(n, t):
    # f = e^-t: f^(n) = (-1)^n e^-t, completely monotonic
    return (-1) ** n * mp.exp(-t)


def exp_growth_oracle(n, t):
    # f = e^t: every derivative positive, fails the pattern at order 1
    return mp.exp(t)


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

    def test_ends_are_compared_exactly(self):
        # ends past a float's range or its 53 bits are compared as rationals
        accepted = (
            ("1e-400", 1), (1, "1.00000000000000000001"), (Fraction(1, 3), "0.3334"),
        )
        for low, high in accepted:
            LogGrid(low, high, 5)
        rejected = (
            (0, 1), ("0", "1"), ("-1", 1), ("-1e-400", "1e-401"), (5, "5.0"),
            ("1.00000000000000000001", 1), (1, "inf"), ("nan", 1),
            (float("nan"), 1), (1, float("inf")), (mp.mpf(1), mp.inf),
            ("abc", 1), ("1/3", 1), (None, 1),
        )
        for low, high in rejected:
            with pytest.raises(ValueError):
                LogGrid(low, high, 5)

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

    @pytest.mark.parametrize(
        "f, passed", ((exp_decay_oracle, True), (exp_growth_oracle, False))
    )
    def test_each_key_is_evaluated_once(self, f, passed):
        # a plain callable has no balls: the walk evaluates every key it
        # reaches once, and takes the violation's value from that evaluation
        calls = []

        def counted(n, t):
            calls.append((n, t))
            return f(n, t)

        report = check_sign_pattern(counted, SMALL_GRID, 4, PREC)
        assert report.passed is passed
        assert len(calls) == len(set(calls)) == report.evaluations
        if not passed:
            n, t = calls[-1]
            assert (report.violation.order, report.violation.t) == (n, t)
            with PREC.workdps():
                assert report.violation.value == f(n, t)

    def test_tiny_negative_value_is_a_violation(self):
        # a plain value is a ball of radius 0, so -1e-20 at 30 digits is
        # proven negative: no threshold lets it pass
        prec = WorkingPrecision(30)
        with prec.workdps():
            bad = SMALL_GRID.values(prec)[7]
            tiny = mp.mpf("-1e-20")

        def oracle(n, t):
            return tiny if t == bad else exp_decay_oracle(n, t)

        report = check_sign_pattern(oracle, SMALL_GRID, 2, prec)
        assert not report.passed
        assert (report.violation.order, report.violation.t) == (0, bad)
        assert report.violation.value == tiny
        assert report.evaluations == 8

    def test_zero_value_is_undecided(self):
        # a zero holds no sign: the scan refuses it, naming the point
        def oracle(n, t):
            return mp.mpf(0) if n == 1 else exp_decay_oracle(n, t)

        with pytest.raises(NumericFailure, match="undecided") as excinfo:
            check_sign_pattern(oracle, SMALL_GRID, 2, PREC)
        assert excinfo.value.operation == "check_sign_pattern"
        assert excinfo.value.inputs["n"] == 1

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
                            assert (sign * got < 0) == (sign * want < 0)
                            assert abs(got - want) <= rel * abs(want)
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
                        value, radius = oracles.value_and_radius(oracle, n, t)
                        assert oracle(n, t) == value
                        with fine.workdps():
                            assert abs(value - exact[n]) <= radius, (k, r, n, t)
                            # and narrow enough to decide the sign
                            assert radius < abs(exact[n])

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
                        value, radius = oracles.value_and_radius(oracle, n, t)
                        with fine.workdps():
                            assert abs(value - exact[n]) <= radius, (k, r, n, t)

    def test_undecided_bracket_is_refused(self):
        # at r = -t H_0'(t) / H_0(t) the first derivative of t^r H_0 vanishes
        # at t = 32, so the bracket sits inside its radius: the scan and the
        # bisection predicate refuse it alike, naming the point
        with PREC.workdps():
            h0, h1 = hk_table(0, 32, 1, PREC)
            root = -32 * h1 / h0
        oracle = ScaledTailOracle(0, 1, PREC).at(root)
        value, radius = oracles.value_and_radius(oracle, 1, 32)
        assert abs(value) <= radius
        grid = LogGrid(32, 1e3, 2)
        scan = outcome(lambda: check_sign_pattern(oracle, grid, 1, PREC))
        ts = grid.values(PREC)
        step = outcome(lambda: ScaledTailOracle(0, 1, PREC).at(root).passes(ts))
        assert scan == step
        operation, detail, inputs = scan
        assert (operation, inputs["n"], inputs["t"]) == ("ScaledTailOracle", 1, 32)
        assert "undecided" in detail

        # a stop threshold of 1/4 leaves the truncated tails in the radius;
        # brackets of either sign inside it are refused
        coarse = CoarseStop(PREC.digits)
        with PREC.workdps():
            h0, h1 = hk_table(0, 32, 1, coarse)
            root = -32 * h1 / h0
            shift = root * mp.mpf("1e-20")
            near = (root - shift, root + shift)
        values = []
        for r in near:
            oracle = ScaledTailOracle(0, 1, coarse).at(r)
            value, radius = oracles.value_and_radius(oracle, 1, 32)
            assert abs(value) <= radius
            values.append(value > 0)
            with pytest.raises(NumericFailure, match="undecided"):
                oracle(1, 32)
            with pytest.raises(NumericFailure, match="undecided"):
                check_sign_pattern(oracle, grid, 1, coarse)
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

    @pytest.mark.parametrize("digits", (30, 100))
    def test_balls_hold_the_bracket_times_the_exact_factor(self, digits):
        # with the sums' radii set to 0 a ball's radius is the factor's slack
        # alone, so at 64 bits and at the values' width each ball must hold
        # the bracket times t^(r-k-1-n) 2^(exp - s n) / (k+1)!, taken at four
        # times the bits
        prec = WorkingPrecision(digits)
        with prec.workdps():
            points = [mp.mpf(t) for t in ("0.01", "0.7", "33.3", "1e4")]
        for k in (0, 2):
            tables = ScaledTailOracle(k, 6, prec)
            table = tables.table
            tables.table = lambda t: HkSums(table(t).sums, [0] * 7, table(t).exp)
            for r in (k + 1, k + Fraction(33, 32), Fraction(1, 3)):
                oracle = tables.at(r)
                _, s = _dyadic(oracle.r)
                for t in points:
                    sums, _, exp = tables.table(t)
                    for n in range(7):
                        bracket = sum(c * v for c, v in zip(oracle._rows[n][0], sums))
                        with mp.workprec(4 * prec.bits):
                            want = (-1) ** n * bracket * mp.ldexp(
                                t ** (oracle.r - k - 1 - n), exp - s * n
                            ) / mp.factorial(k + 1)
                            for mid, rad, x in (oracle.balls(t)[n], oracle.value_ball(n, t)):
                                assert rad < abs(mid)
                                assert abs(want - mp.ldexp(mid, x)) <= mp.ldexp(rad, x), (k, r, n, t)

    def test_order_beyond_table_is_rejected(self):
        oracle = ScaledTailOracle(0, 2, PREC).at(1)
        with pytest.raises(ValueError):
            oracle(3, 2)


class TestSignPredicate:
    GRID = LogGrid(1e-2, 1e6, 24)

    @staticmethod
    def rs(k):
        return (k, k + 1, k + 1 + Fraction(1, 2**60), k + Fraction(33, 32),
                k + Fraction(5, 4), k + 2, Fraction(1, 3), Fraction(-1, 2))

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_predicate_is_the_scan_verdict(self, digits):
        prec = WorkingPrecision(digits)
        ts = self.GRID.values(prec)
        for k in range(5):
            tables = ScaledTailOracle(k, 6, prec)
            for r in self.rs(k):
                want = check_sign_pattern(tables.at(r), self.GRID, 6, prec).passed
                assert tables.at(r).passes(ts) == want, (k, r)
                if r != k + 1 + Fraction(1, 2**60):
                    assert want == (r <= k + 1), (k, r)
            # a passing scan settles every sign in integers: it takes no t^r
            # and builds no factor, so no value and no ball; so does a
            # failing one, whose violation's sign is its bracket's
            fresh = ScaledTailOracle(k, 6, prec)
            for r, passed in ((k + 1, True), (k + 2, False)):
                oracle = fresh.at(r)
                assert oracle.passes(ts) is passed
                assert oracle._balls == {}

    @pytest.mark.parametrize("digits", (30, 50))
    def test_fallback_is_the_scan_verdict(self, digits):
        # under a coarse stop the truncated tail dominates every radius, so
        # the brackets near their radii take the exact R: a pass, a fail or
        # a refusal of the step is the scan's
        prec = CoarseStop(digits)
        ts = self.GRID.values(prec)
        for k in range(5):
            tables = ScaledTailOracle(k, 6, prec)
            for r in self.rs(k):
                want = outcome(
                    lambda: check_sign_pattern(tables.at(r), self.GRID, 6, prec).passed
                )
                assert outcome(lambda: tables.at(r).passes(ts)) == want, (k, r)

    def test_bracket_below_the_bound_takes_the_radius(self):
        # at t = 0.2 under a coarse stop, x = 5 makes order 1's tail about 5
        # times order 0's, so M_1 = radii[1] > radii[0]: at an r whose
        # order-1 bracket lies in (W_1 radii[0], R] the sign is undecided,
        # and the step refuses it as the scan does
        prec = CoarseStop(50)
        grid = LogGrid("0.2", 1, 2)
        ts = grid.values(prec)
        k = 4
        (s0, s1), (r0, r1), _ = hk_sums(k, ts[0], 1, prec)
        assert r1 > r0
        # S_1 - r S_0 = r r0 + (r0 + r1)/2, inside ((r + 1) r0, r r0 + r1]
        r = Fraction(2 * s1 - r0 - r1, 2 * (s0 + r0))
        r = Fraction(round(r * 2**60), 2**60)
        a, s = _dyadic(ScaledTailOracle(k, 1, prec).at(r).r)
        bracket = (s1 << s) - a * s0
        assert a > 0 and (a + (1 << s)) * r0 < bracket <= a * r0 + (r1 << s)
        want = outcome(
            lambda: check_sign_pattern(ScaledTailOracle(k, 1, prec).at(r), grid, 1, prec)
        )
        got = outcome(lambda: ScaledTailOracle(k, 1, prec).at(r).passes(ts))
        assert got == want
        operation, detail, inputs = want
        assert (operation, inputs["n"], inputs["t"]) == ("ScaledTailOracle", 1, ts[0])
        assert "undecided" in detail

    def test_work_is_what_the_walk_reaches(self, monkeypatch):
        # on the bench grid each point's order 0 is judged once per bracket,
        # when it joins the rows, and a step builds the coefficient rows of
        # the orders its walk reaches: row 1 alone where it fails at order 1;
        # past the seam hk_sums' radii carry no tail
        prec = WorkingPrecision(50)
        ts = self.GRID.values(prec)
        with prec.workdps():
            rel = mp.prec + 28
        weights = [0] + [weight for _, weight in _lah_rows(6)]
        judged = []
        made = []
        sign = ScaledDerivative._sign

        def spy(self, bracket, radius, n, t):
            if n == 0:
                judged.append(t)
            return sign(self, bracket, radius, n, t)

        class Recording(ScaledTailOracle):
            def at(self, r):
                oracle = super().at(r)
                made.append(oracle)
                return oracle

        monkeypatch.setattr(ScaledDerivative, "_sign", spy)
        monkeypatch.setattr(cmdeg, "ScaledTailOracle", Recording)
        for k in range(5):
            judged.clear()
            made.clear()
            estimate_cm_degree(k, grid=self.GRID, prec=prec)
            assert judged == list(ts), k
            first_order_fails = 0
            for oracle in made:
                scan = check_sign_pattern(
                    ScaledTailOracle(k, 6, prec).at(oracle.r), self.GRID, 6, prec
                )
                reached = scan.violation.order if scan.violation else 6
                assert sorted(oracle._rows) == list(range(1, reached + 1)), (k, oracle.r)
                first_order_fails += reached == 1
            assert first_order_fails == 6, k
            exp_side = [t for t in ts if _hk_exp_side(k, *_dyadic(t))]
            assert exp_side, k
            for t in exp_side:
                sums, radii, _ = hk_sums(k, t, 6, prec)
                assert radii == [
                    (total + weight >> rel) + 1 + weight
                    for total, weight in zip(sums, weights)
                ], (k, t)

    def test_order_zero_refusal_keeps_the_point_out_of_the_rows(self):
        # a point joins the rows only once its order 0 has passed, so the
        # next step judges it again and refuses it the same way
        prec = WorkingPrecision(30)
        ts = self.GRID.values(prec)
        tables = ScaledTailOracle(0, 6, prec)
        table = tables.table

        def doctored(t):
            sums, radii, exp = table(t)
            if t == ts[5]:
                radii = [2 * sums[0], *radii[1:]]
            return HkSums(sums, radii, exp)

        tables.table = doctored
        rows = []
        for r in (1, 2):
            operation, detail, inputs = outcome(lambda: tables.at(r).passes(ts, rows))
            assert (operation, inputs["n"], inputs["t"]) == ("ScaledTailOracle", 0, ts[5])
            assert "undecided" in detail
            assert len(rows) == 5

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_bisection_builds_no_mpf_value(self, digits, monkeypatch):
        # every step of a bisection on the bench grid, passing or failing,
        # is decided in integers: no t^r and no factor, so no value and no
        # ball
        prec = WorkingPrecision(digits)
        made = []

        class Recording(ScaledTailOracle):
            def at(self, r):
                oracle = super().at(r)
                made.append((self, oracle))
                return oracle

        monkeypatch.setattr(cmdeg, "ScaledTailOracle", Recording)
        for k in range(5):
            made.clear()
            estimate = estimate_cm_degree(k, grid=self.GRID, prec=prec)
            with prec.workdps():
                assert (estimate.r_lo, estimate.r_hi) == (k + 1, k + 1 + mp.mpf(1) / 32)
            assert len(made) == estimate.bisections + 2 == 8
            (tables,) = {tables for tables, _ in made}
            assert all(oracle._balls == {} for _, oracle in made)

    @pytest.mark.parametrize("digits", (30, 500))
    def test_default_brackets(self, digits):
        # on the default degree grid every bracket is [k+1, k+1 + 1/32], in
        # six steps over 200 tables, at the lowest digits and at many
        prec = WorkingPrecision(digits)
        for k in range(5):
            estimate = estimate_cm_degree(k, prec=prec)
            with prec.workdps():
                assert estimate.r_lo == k + 1
                assert estimate.r_hi == k + 1 + mp.mpf(1) / 32
            assert (estimate.bisections, estimate.series) == (6, 200)

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
            for t, row in zip(ts, rows):
                sums, radii, _ = tables.table(t)
                assert row == (sums, radii, list(accumulate(radii, max)))

            def refuse(t):
                raise AssertionError(f"table looked up at {t}")

            tables.table = refuse
            # r = k+1 settles every sign in integers, so it needs only the rows
            assert tables.at(k + 1).passes(ts, rows)

    def test_predicate_raises_the_scan_failures(self):
        coarse = CoarseStop(PREC.digits)
        with PREC.workdps():
            h0, h1 = hk_table(0, 32, 1, coarse)
            root = -32 * h1 / h0
            past = root + mp.mpf("1e-8")
        # the undecided bracket at (1, 32), at the root and just past it,
        # where B < 0 < B + R and the value is 3e-10; and a first table past
        # the series budget (k = 60000 sums its series at 1e-5):
        # (k, max_order, r, grid, prec)
        cases = (
            (0, 1, root, LogGrid(32, 1e3, 2), coarse),
            (0, 1, past, LogGrid(32, 1e3, 2), coarse),
            (60000, 6, 1, LogGrid("1e-5", 1, 2), PREC),
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
        assert operations == ["ScaledTailOracle"] * 2 + ["hk_sums"]

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
        oracle = HOracle(8, PREC)
        report = check_sign_pattern(oracle, grid, 8, PREC)
        assert report.passed
        assert report.evaluations == 9 * 12
        assert oracle.series == 12

    def test_values_are_the_h_engines(self):
        oracle = HOracle(3, PREC)
        with PREC.workdps():
            rel = mp.mpf(10) ** (3 - PREC.digits)
            assert abs(oracle(0, "0.7") - h_function("0.7", PREC)) <= rel
            for n in (1, 2, 3):
                want = h_derivative(n, "0.7", PREC)
                assert abs(oracle(n, "0.7") - want) <= rel * abs(want)
        assert oracle.series == 1

    def test_balls_take_the_sign_rung_else_the_row_at_prec(self):
        # at 30 digits the rung decides every order at t = 1 at 64 bits, and
        # at t = 1e7, where the orders i >= 1 cancel past them, at more; past
        # its cap, 7.6e10, the row is the table's at prec, which decides
        # every order at 1e11 and order 0 alone at 1e12
        prec = WorkingPrecision(30)
        oracle = HOracle(8, prec)
        with prec.workdps():
            ts = [mp.mpf(1), mp.mpf("1e7"), mp.mpf("1e11"), mp.mpf("1e12")]
        for t in ts[:2]:
            assert oracle.balls(t) == h_sign_balls(8, t, prec) is not None
        for t, decided in zip(ts[2:], (9, 1)):
            assert h_sign_balls(8, t, prec) is None
            assert oracle.balls(t) == h_balls(0, 8, t, prec)
            assert sum(rad < abs(mid) for mid, rad, _ in oracle.balls(t)) == decided

    def test_order_beyond_table_is_rejected(self):
        with pytest.raises(ValueError):
            HOracle(2, PREC)(3, 1)
        with pytest.raises(ValueError):
            HOracle(-1, PREC)


def ball_of(center, radius):
    """The ball (H, R, x) of two exact dyadics (mpfs or ints), radius >= 0."""
    (c, ce), (r, re) = _dyadic(center), _dyadic(radius)
    e = max(ce, re)
    return c << e - ce, r << e - re, -e


def ball_around(value, bits=40, widen=1):
    """A ball centred on the mpf value, widen times 2^-bits |value| wide."""
    return ball_of(value, widen * mp.ldexp(abs(value), -bits))


class FakeSource:
    """Exact values and balls by key, counting the exact evaluations."""

    def __init__(self, values, balls):
        self.values = values
        self.balls = balls
        self.evaluated = []

    def exact(self, key):
        """The value, of proven sign: a zero raises, as ball_minimum's
        contract asks."""
        self.evaluated.append(key)
        value = self.values[key]
        oracles.value_sign(value, key=key)
        return value

    def run(self):
        return ball_minimum(list(self.values), self.balls.get, self.exact)

    def reference(self):
        return oracles.one_pass_minimum(list(self.values), self.values.get)


class TestBallMinimum:
    def test_narrow_balls_evaluate_only_the_minimum(self):
        with PREC.workdps():
            values = dict(enumerate(map(mp.mpf, ("3", "0.5", "2", "0.75", "1"))))
            balls = {j: ball_around(v) for j, v in values.items()}
            source = FakeSource(values, balls)
            assert source.run() == source.reference()
        assert source.evaluated == [1]

    def test_undecided_balls_are_evaluated_in_walk_order(self):
        # balls 1 and 3 hold 0, so their values are taken as the walk
        # reaches them; neither is a violation, and 1 is also the minimum
        with PREC.workdps():
            tiny = mp.ldexp(1, -100)
            values = {0: mp.mpf(1), 1: tiny, 2: mp.mpf(2), 3: 4 * tiny}
            balls = {j: ball_around(v) for j, v in values.items()}
            for j in (1, 3):
                balls[j] = ball_of(values[j], 8 * tiny)
            source = FakeSource(values, balls)
            got = source.run()
            assert got == source.reference()
            assert got[1:] == (1, 4, False)
        assert source.evaluated == [1, 3]

    def test_violation_ends_the_walk(self):
        # the violation's ball lies below 0, or holds it and the key's
        # value is negative
        for widen in (1, 1 << 100):
            with PREC.workdps():
                tiny = -mp.ldexp(1, -100)
                values = {0: mp.mpf(1), 1: mp.mpf("0.25"), 2: tiny, 3: mp.mpf(-5)}
                balls = {j: ball_around(v) for j, v in values.items()}
                balls[2] = ball_around(tiny, widen=widen)
                source = FakeSource(values, balls)
                got = source.run()
                assert got == source.reference() == (tiny, 2, 3, True)
            # the violation is evaluated as the walk reaches it; the key past
            # it is never looked at
            assert source.evaluated == [2]

    def test_ties_keep_the_first_in_walk_order(self):
        # keys 1 and 3 share the smallest value; 3's ball reaches lower
        with PREC.workdps():
            least = mp.mpf("0.125")
            values = {0: mp.mpf(1), 1: least, 2: mp.mpf(2), 3: least}
            balls = {j: ball_around(v) for j, v in values.items()}
            balls[3] = ball_around(least, widen=5)
            source = FakeSource(values, balls)
            got = source.run()
            assert got == source.reference() == (least, 1, 4, False)
        assert source.evaluated == [1, 3]

    def test_missing_ball_is_evaluated_at_once(self):
        # a key with no ball is evaluated where the walk reaches it, so a
        # failure there surfaces before any later key is evaluated
        def exact(key):
            if key == 1:
                raise NumericFailure("fake", "no value", key=key)
            return mp.mpf(key)

        balls = {j: ball_around(mp.mpf(j)) for j in (0, 2, 3)}
        with PREC.workdps(), pytest.raises(NumericFailure) as failure:
            ball_minimum([0, 1, 2, 3], balls.get, exact)
        assert failure.value.inputs == {"key": 1}

    def test_huge_exponents_are_compared_by_their_leading_bits(self):
        # values near 2^(10^40) and 2^-(10^40): no comparison shifts by the
        # exponent gap, and an evaluated value keeps its own exponent, as
        # neither integer could be formed.  Key 1's ball holds 0, so it is
        # evaluated; key 4's lies below 0 and ends the walk
        big = 10**40
        with PREC.workdps():
            values = dict(enumerate((
                mp.ldexp(3, big), mp.ldexp(5, -big), mp.ldexp(7, big - 1),
                mp.mpf(2), mp.ldexp(-1, big), mp.ldexp(-3, -big),
            )))
            balls = {}
            for j, value in values.items():
                negative, man, e, _ = value._mpf_
                balls[j] = ((-man if negative else man) << 8, 1, e - 8)
            balls[1] = (0, 8, -big)
            source = FakeSource(values, balls)
            got = source.run()
            assert got == source.reference()
            assert got[1:] == (4, 5, True)
            assert source.evaluated == [1, 4]

    def test_comparisons_are_exact(self):
        # a 2^x < b 2^y against exact rationals, every shift on either side
        # of the integers' bit lengths: all small cases, and large integers
        # at gaps up to 2^80
        small = range(-9, 10)
        large = (0, 1, -1, 3, -5, 2**69 + 5, -(2**69) - 3, 2**40)
        cases = [(a, x, b, y) for a in small for b in small
                 for x in range(-5, 6) for y in range(-5, 6)]
        cases += [(a, x, b, y) for a in large for b in large
                  for x in (-80, -7, 0, 7, 80) for y in (-80, -7, 0, 7, 80)]
        for a, x, b, y in cases:
            want = Fraction(a) * Fraction(2) ** x < Fraction(b) * Fraction(2) ** y
            assert cmdeg._below(a, x, b, y) == want, (a, x, b, y)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-40, max_value=40),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=6),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_matches_the_one_pass_walk(self, items):
        # values on a coarse lattice, so ties, zeros and balls that hold 0
        # are common; each ball holds its value, some are missing
        with PREC.workdps():
            values = {j: mp.ldexp(v, -3) for j, (v, _, _, _) in enumerate(items)}
            balls = {}
            for j, (v, below, above, present) in enumerate(items):
                if present:
                    balls[j] = (8 * v + 4 * (above - below), 4 * (above + below), -6)
            source = FakeSource(values, balls)
            got = outcome(source.run)
            assert got == outcome(source.reference)


class NoStopPolicy(WorkingPrecision):
    @property
    def series_stop(self):
        return mp.mpf(0)


class FakeBallOracle(HOracle):
    """An HOracle over summer(t), with balls that hold its values, widened
    by widen units; its values enter the walk as balls of radius 0."""

    def __init__(self, summer, max_order, prec, widen):
        super().__init__(max_order, prec)
        self._summer = summer
        self._widen = widen

    def balls(self, t):
        with self.prec.workdps():
            return [ball_around(v, 20, self._widen) for v in self.table(t)]


class TestTwoPassHScan:
    """check_sign_pattern over an HOracle against one pass at full precision."""

    GRIDS = (LogGrid("0.0503", 1e3, 40), DEFAULT_H_GRID)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_reports_equal_the_one_pass_walk(self, digits):
        prec = WorkingPrecision(digits)
        for grid in self.GRIDS:
            oracle = HOracle(8, prec)
            got = check_sign_pattern(oracle, grid, 8, prec)
            assert got == oracles.one_pass_h_sign_pattern(grid, 8, prec)
            # one ball table per point; the balls settle all but the minimum
            assert oracle.series == grid.points
            assert len(oracle._tables) == 1

    def test_low_orders_on_a_wide_grid(self):
        prec = WorkingPrecision(50)
        grid = LogGrid("2e-3", "1e6", 30)
        got = check_sign_pattern(HOracle(3, prec), grid, 3, prec)
        assert got == oracles.one_pass_h_sign_pattern(grid, 3, prec)

    def test_failure_is_the_one_pass_failure(self):
        # polygamma cannot stop without a series stop: the first point fails
        # at 30 digits, is evaluated at full precision and fails there as the
        # one-pass scan does
        prec = NoStopPolicy(50)
        grid = LogGrid("0.05", 1e3, 5)
        want = outcome(lambda: oracles.one_pass_h_sign_pattern(grid, 8, prec))
        got = outcome(lambda: check_sign_pattern(HOracle(8, prec), grid, 8, prec))
        assert got == want
        assert got[0] == "polygamma"

    def test_violation_report_through_fake_balls(self):
        # e^t over an HOracle whose balls hold its values: the pattern
        # fails at order 1 on the first point, where the walk stops
        grid = LogGrid("0.1", 10, 6)
        prec = PREC
        for widen in (1, 1 << 400):
            oracle = FakeBallOracle(lambda t: [mp.exp(t)] * 4, 3, prec, widen)
            got = check_sign_pattern(oracle, grid, 3, prec)
            want = oracles.one_pass_sign_pattern(
                FakeBallOracle(lambda t: [mp.exp(t)] * 4, 3, prec, widen), grid, 3, prec
            )
            assert got == want
            assert got.violation.order == 1 and got.evaluations == 7

    def test_the_violation_is_evaluated_once(self):
        # the balls settle every key but the violation, which the walk
        # evaluates where it reaches it and does not evaluate again
        grid = LogGrid("0.1", 10, 6)
        calls = []

        class Counted(FakeBallOracle):
            def __call__(self, n, t):
                calls.append((n, t))
                return super().__call__(n, t)

        report = check_sign_pattern(
            Counted(lambda t: [mp.exp(t)] * 4, 3, PREC, 1), grid, 3, PREC
        )
        violation = report.violation
        assert calls == [(violation.order, violation.t)]
        with PREC.workdps():
            assert violation.value == mp.exp(violation.t)

    def test_orders_past_the_oracle_keep_the_one_pass_scan(self):
        with pytest.raises(NumericFailure) as failure:
            check_sign_pattern(HOracle(2, PREC), LogGrid(1, 2, 2), 3, PREC)
        assert failure.value.operation == "check_sign_pattern"

    @pytest.mark.parametrize("digits", (30, 50))
    def test_tables_come_from_the_balls(self, monkeypatch, digits):
        # the scan sums a table at prec only at the points of ball_minimum's
        # candidates, as picked from the rung's balls alone, and each of
        # those takes at most _MAX_RAISES raises (none up to t = 3e3, one
        # past it); the rung decides every row out to 1e10
        prec = WorkingPrecision(digits)
        calls = []

        def counted(*args):
            calls.append(args[2])
            return h_table(*args)

        monkeypatch.setattr(cmdeg, "h_table", counted)
        passes = oracles.h_table_passes(monkeypatch)
        for grid in (LogGrid("0.0503", 1e3, 40), LogGrid(2e3, 1e10, 6)):
            calls.clear()
            passes.clear()
            oracle = HOracle(8, prec)
            got = check_sign_pattern(oracle, grid, 8, prec)
            with prec.workdps():
                ts = grid.values(prec)
            balls = [
                (t, ((-1) ** n * mid, rad, x))
                for n in range(9)
                for t in ts
                for mid, rad, x in [oracle.balls(t)[n]]
            ]
            assert sorted(calls) == sorted(set(oracles.ball_candidates(balls)))
            assert sorted(passes) == sorted(calls)
            for digits in passes.values():
                assert digits[0] == prec.digits
                assert digits == sorted(set(digits))
                assert len(digits) <= _MAX_RAISES + 1
            assert got == oracles.one_pass_h_sign_pattern(grid, 8, prec)
            with prec.workdps():
                for t in ts:
                    assert oracle.table(t) == h_table(0, 8, t, prec)


    def test_past_the_cap_the_rows_at_prec_settle_the_signs(self, monkeypatch):
        # at 30 digits the rung declines every row from t = 7.6e10 on, 15
        # grid points; the rows of the tables at prec settle order 0 out to
        # 1e12 and order 1 up to t = 2.1e11, and from there a table is
        # summed at each of the 10 points, raised by refine until its balls
        # lie off 0, so the scan passes as the one-pass walk does
        prec = WorkingPrecision(30)
        grid = LogGrid("1e-3", 1e12, 200)
        calls = []

        def counted(*args):
            calls.append(args[2])
            return h_table(*args)

        monkeypatch.setattr(cmdeg, "h_table", counted)
        oracle = HOracle(8, prec)
        got = check_sign_pattern(oracle, grid, 8, prec)
        assert got.passed
        assert got == oracles.one_pass_h_sign_pattern(grid, 8, prec)
        assert len(calls) == 10 and int(calls[0]) == 209704640132
        with prec.workdps():
            ts = grid.values(prec)
        undecided = [
            t for t in ts
            if any(not ball_sign(mid, rad) for mid, rad, _ in oracle.balls(t))
        ]
        assert calls == undecided
        # the value of h' there is right to its digits
        t = calls[0]
        with mp.workdps(3 * prec.working_dps):
            want = -mp.exp(1 / t) / t**2 - mp.psi(2, t)
            bound = mp.mpf(10) ** (1 - prec.digits) * abs(want)
            assert abs(oracle(1, t) - want) <= bound


class LooseStop(WorkingPrecision):
    # a series stop of 2^-81: the truncated tails carry the radius of every
    # bracket
    @property
    def series_stop(self):
        return mp.ldexp(1, -81)


BALL_POLICIES = (
    WorkingPrecision(30),
    WorkingPrecision(50),
    WorkingPrecision(100),
    LooseStop(30),
    LooseStop(50),
)


def documented_ball(oracle, n, t):
    """(centre, least radius) that ScaledDerivative.balls' docstring needs,
    as mpfs at the current precision: V B and V (R + (k + 2n + 8) 2^-P |B|),
    from the sums of t at prec and the Leibniz coefficients as Fractions."""
    tables, prec = oracle.tables, oracle.tables.prec
    core = tables.table(t)
    with prec.workdps():
        bits = mp.prec
    a, s = _dyadic(oracle.r)
    r = Fraction(a, 2**s)
    coeffs = []  # C(n,j) (-r)^(j), against S_(n-j)
    for j in range(n + 1):
        rising = Fraction(1)
        for i in range(j):
            rising *= i - r
        coeffs.append(comb(n, j) * rising)
    to = oracles.mpf_from_fraction
    bracket = to(sum(c * core.sums[n - j] for j, c in enumerate(coeffs)))
    own = to(sum(abs(c) * core.radii[n - j] for j, c in enumerate(coeffs)))
    k = tables.k
    # V = t^(r-n) lead 2^exp, with the 2^-(s n) of the integer rows in r's
    # Fractions instead
    value = mp.ldexp(t ** (to(r) - n - k - 1) / mp.factorial(k + 1), core.exp)
    least = value * (own + mp.ldexp(k + 2 * n + 8, -bits) * abs(bracket))
    return (-1) ** n * value * bracket, least


def holds(ball, *values):
    """Whether the ball (H, R, x) holds every mpf value, compared exactly."""
    mid, rad, x = ball
    for value in values:
        num, e = _dyadic(value)
        shift = x + e
        if shift >= 0:
            lo, hi = (mid - rad) << shift, (mid + rad) << shift
        else:
            lo, hi, num = mid - rad, mid + rad, num << -shift
        if not lo <= num <= hi:
            return False
    return True


def zero_of_first_derivative(k, t, prec):
    """The r at which d/dt [t^r H_k(t)] vanishes at t: -t H_k'(t) / H_k(t)."""
    with prec.workdps():
        h0, h1 = hk_table(k, t, 1, prec)
        return -t * h1 / h0


class FakeScaledBalls(ScaledDerivative):
    """A ScaledDerivative whose balls are built around its own values at
    prec, widened by widen units, or taken from replace by (n, t)."""

    def __init__(self, tables, r, widen=1, replace=None):
        super().__init__(tables, r)
        self._widen = widen
        self._replace = replace or {}

    def balls(self, t):
        out = []
        for n in range(self.max_order + 1):
            fake = self._replace.get((n, t))
            if fake is None:
                with self.tables.prec.workdps():
                    fake = ball_around(self(n, t), 20, self._widen)
            out.append(fake)
        return out


class TestTwoPassHkScan:
    """check_sign_pattern over a ScaledDerivative, whose balls are its
    brackets at prec, against one pass at prec."""

    @staticmethod
    def points():
        # converted once at 30 digits, so every precision scans the same t
        with WorkingPrecision(30).workdps():
            return [mp.mpf(t) for t in ("1e-2", "0.1", "1", "10", "1e3", "1e6")]

    def test_balls_hold_the_exact_and_the_prec_values(self):
        # each ball holds the termwise route at 90 digits, whose error is far
        # under the 64-bit factor's share of any ball's radius, and the value
        # at prec, and a ball that lies on one side of 0 has the sign of its
        # bracket, ball_sign(B, R), as passes reads it
        fine = WorkingPrecision(90)
        ts = self.points()
        for prec in BALL_POLICIES[:3]:
            for k in range(5):
                tables = ScaledTailOracle(k, 6, prec)
                for r in (k + 1, k + Fraction(5, 4), k + Fraction(1, 2), Fraction(99, 32)):
                    oracle = tables.at(r)
                    for t in ts:
                        exact = oracles.termwise_table(k, r, t, fine)
                        balls = oracle.balls(t)
                        for n in range(7):
                            value, _ = oracles.value_and_radius(oracle, n, t)
                            assert holds(balls[n], exact[n], value), (prec, k, r, n, t)
                            mid, rad, _ = balls[n]
                            side = ball_sign((-1) ** n * mid, rad)
                            if side:
                                signed = (-1) ** n * oracle(n, t)
                                assert side == ball_sign(signed, 0), (prec, k, r, n, t)

    def test_radius_covers_the_documented_budget(self):
        # the radius is at least what balls' proof needs: the bracket's own
        # radius, the rounding of the value at prec, and the distance from
        # the centre to V B.  At the zero of the first derivative at t = 32
        # the bracket cancels, so the factor's rounding does not hide the
        # bracket's radius; under a stop of 2^-81 the truncated tails carry
        # that radius
        ts = self.points() + [mp.mpf(32)]
        for prec in BALL_POLICIES:
            for k in (0, 3):
                tables = ScaledTailOracle(k, 6, prec)
                zero = zero_of_first_derivative(k, 32, prec)
                for r in (k + 1, k + Fraction(5, 4), zero):
                    oracle = tables.at(r)
                    for t in ts:
                        balls = oracle.balls(t)
                        with mp.workdps(3 * prec.working_dps):
                            for n in range(7):
                                centre, least = documented_ball(oracle, n, t)
                                mid, rad, x = balls[n]
                                unit = mp.ldexp(1, x)
                                assert abs(mid * unit - centre) + least <= rad * unit, (
                                    prec, k, r, n, t
                                )

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_reports_equal_the_one_pass_walk(self, digits):
        # the cli-mix scans of each digits level, pass and fail, on two of
        # its 40-point grids and on the default grid
        prec = WorkingPrecision(digits)
        k = {30: 0, 50: 2, 100: 4}[digits]
        grids = (LogGrid("0.010037", 1e6, 40), LogGrid("0.0109", 1e6, 40),
                 DEFAULT_DEGREE_GRID)
        for grid in grids:
            for r in (k + 1, Fraction(4 * k + 5, 4)):
                tables = ScaledTailOracle(k, 6, prec)
                got = check_sign_pattern(tables.at(r), grid, 6, prec)
                want = oracles.one_pass_sign_pattern(
                    ScaledTailOracle(k, 6, prec).at(r), grid, 6, prec
                )
                assert got == want
                assert got.passed == (r == k + 1)
                # one table per point, at prec, the balls' and the values'
                assert tables.series == grid.points

    def test_huge_values_keep_the_walk(self):
        # H_k near t = 1e-40 is about e^(1e40): its balls and values are
        # compared by their leading bits, never shifted to a common exponent
        cases = ((30, "1e-40"), (50, "1e-40"), (50, "1e-70"))
        for digits, low in cases:
            prec = WorkingPrecision(digits)
            grid = LogGrid(low, 1e6, 5)
            for k in (0, 2):
                for r in (k + 1, Fraction(4 * k + 5, 4)):
                    got = check_sign_pattern(
                        ScaledTailOracle(k, 6, prec).at(r), grid, 6, prec
                    )
                    want = oracles.one_pass_sign_pattern(
                        ScaledTailOracle(k, 6, prec).at(r), grid, 6, prec
                    )
                    assert got == want, (digits, low, k, r)
                    assert got.passed == (r == k + 1)

    def test_violation_through_fake_balls(self):
        # balls that hold the values at prec, narrow or too wide to settle
        # anything: the violation and the report are the one-pass walk's
        grid = LogGrid("0.05", 1e3, 12)
        for widen in (1, 1 << 400):
            got = check_sign_pattern(
                FakeScaledBalls(ScaledTailOracle(1, 4, PREC), "2.25", widen), grid, 4, PREC
            )
            want = oracles.one_pass_sign_pattern(
                ScaledTailOracle(1, 4, PREC).at("2.25"), grid, 4, PREC
            )
            assert got == want and got.violation.order == 1

    def test_undecided_ball_is_judged_at_prec(self):
        # at the zero of the first derivative at t = 32 the bracket of order
        # 1 is undecided, so its ball holds 0: the walk evaluates that key,
        # and the value refuses the bracket.  A fake ball settled there
        # would skip the evaluation, and the scan would pass instead
        zero = zero_of_first_derivative(0, 32, PREC)
        grid = LogGrid(1, 32, 2)
        oracle = ScaledTailOracle(0, 1, PREC).at(zero)
        with PREC.workdps():
            t = grid.values(PREC)[1]
            mid, rad, _ = oracle.balls(t)[1]
            assert abs(mid) <= rad
        got = outcome(lambda: check_sign_pattern(oracle, grid, 1, PREC))
        assert got == outcome(lambda: oracle(1, t))
        assert got[0] == "ScaledTailOracle" and got[2]["n"] == 1
        # far above every other value, so not a candidate for the minimum
        settled = {(1, t): ball_of(-mp.ldexp(1, 100), 0)}
        fake = FakeScaledBalls(ScaledTailOracle(0, 1, PREC), zero, replace=settled)
        report = check_sign_pattern(fake, grid, 1, PREC)
        assert report.passed and report.evaluations == 4

    def test_failures_are_the_one_pass_failures(self):
        # no series stop: the sum at prec that the first ball needs fails,
        # as the one-pass walk's does; under a coarse stop the balls are
        # wide, and the walk passes as the one-pass walk does, or refuses
        # the undecided bracket at the zero of the first derivative at
        # t = 32, whose ball holds 0, as its value does
        coarse = CoarseStop(PREC.digits)
        cases = ((NoStopPolicy(50), LogGrid(1, 10, 2)), (coarse, LogGrid(1, 10, 5)))
        outcomes = []
        for prec, grid in cases:
            want = outcome(
                lambda: oracles.one_pass_sign_pattern(
                    ScaledTailOracle(0, 1, prec).at(1), grid, 1, prec
                )
            )
            oracle = ScaledTailOracle(0, 1, prec).at(1)
            assert outcome(lambda: check_sign_pattern(oracle, grid, 1, prec)) == want
            outcomes.append(want)
        assert outcomes[0][0] == "hk_sums"
        assert outcomes[1].passed
        zero = zero_of_first_derivative(0, 32, coarse)
        oracle = ScaledTailOracle(0, 1, coarse).at(zero)
        grid = LogGrid(32, 1e3, 2)
        got = outcome(lambda: check_sign_pattern(oracle, grid, 1, coarse))
        t = grid.values(coarse)[0]
        mid, rad, _ = oracle.balls(t)[1]
        assert abs(mid) <= rad
        assert got == outcome(lambda: oracle(1, t))
        assert got[0] == "ScaledTailOracle"
