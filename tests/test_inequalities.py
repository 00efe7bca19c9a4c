"""Polynomial form equivalences, the two positivity scans, and the
difference-derivative bound, against brute-force exact expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from cmcheck import (
    DEFAULT_PRECISION,
    LogGrid,
    NumericFailure,
    WorkingPrecision,
    check_difference_bound,
    check_ineq_bessel,
    check_ineq_trigamma,
    f_poly,
    fpoly_validated,
    h_derivative,
    h_function,
    h_table,
)
from cmcheck import inequalities
from cmcheck.inequalities import (
    DEFAULT_BESSEL_GRID,
    DEFAULT_NEGATIVITY_GRID,
    DEFAULT_TRIGAMMA_GRID,
    FPOLY_FORMS,
    _difference_bound,
)
from cmcheck.laurent import h_balls, h_sign_balls
from cmcheck.specfun import to_mpf

PREC = DEFAULT_PRECISION

RATIONAL_POINTS = (Fraction(1, 2), 1, Fraction(3, 2), 2, 7)

# frozen margins at the scan argmins (binary grid endpoints), mpmath route
TRIGAMMA_MARGIN_AT_100 = "0.00000000042083448614691978843715861127173400034875789128196"
BESSEL_MARGIN_AT_GRID_MIN = "5.4253811306480129047302932022956735720261429143734e-19"


def assert_close(value, reference, rel="1e-45"):
    with mp.workdps(80):
        want = mp.mpf(reference)
        assert abs(value - want) <= mp.mpf(rel) * abs(want), (
            mp.nstr(value, 30),
            mp.nstr(want, 30),
        )


class TestFPolyForms:
    def test_form_a_matches_bruteforce(self):
        for i in range(13):
            for t in RATIONAL_POINTS:
                assert f_poly(i, t, "A") == oracles.fpoly_bruteforce(i, t)

    def test_form_b_equals_a_everywhere(self):
        for i in range(13):
            for t in RATIONAL_POINTS:
                assert f_poly(i, t, "B") == f_poly(i, t, "A")

    def test_forms_c_d_equal_a_for_positive_i(self):
        for i in range(1, 13):
            for t in RATIONAL_POINTS:
                a = f_poly(i, t, "A")
                assert f_poly(i, t, "C") == a
                assert f_poly(i, t, "D") == a

    def test_i0_display_anomaly(self):
        # the collected and verbatim printed forms disagree with the
        # factored form at i = 0: -22 vs -2 at t = 1
        assert f_poly(0, 1, "A") == -2
        assert f_poly(0, 1, "B") == -2
        assert f_poly(0, 1, "C") == -22
        assert f_poly(0, 1, "D") == -22

    def test_validated_flags(self):
        for form in FPOLY_FORMS:
            assert fpoly_validated(3, form) is True
        assert fpoly_validated(0, "A") is True
        assert fpoly_validated(0, "B") is True
        assert fpoly_validated(0, "C") is False
        assert fpoly_validated(0, "D") is False

    def test_frozen_exact_values(self):
        assert f_poly(1, 2, "A") == -30
        assert f_poly(1, 2, "C") == -30
        assert f_poly(2, 7, "A") == -2364
        assert f_poly(3, Fraction(3, 2), "D") == -920
        assert f_poly(5, 2, "B") == -52050
        assert f_poly(12, 7, "A") == -408637531248086

    def test_exact_types(self):
        assert isinstance(f_poly(2, 3, "A"), int) or isinstance(
            f_poly(2, 3, "A"), Fraction
        )
        value = f_poly(2, Fraction(1, 3), "A")
        assert isinstance(value, Fraction)
        assert value == oracles.fpoly_bruteforce(2, Fraction(1, 3))

    def test_float_route_matches_exact(self):
        with PREC.workdps():
            exact = oracles.fpoly_bruteforce(4, Fraction(3, 2))
            got = f_poly(4, "1.5", "A", PREC)
            assert not isinstance(got, (int, Fraction))
            want = mp.mpf(exact.numerator) / exact.denominator
            assert abs(got - want) <= mp.mpf("1e-45") * abs(want)

    def test_form_validation(self):
        with pytest.raises(ValueError):
            f_poly(1, 1, "E")
        with pytest.raises(ValueError):
            f_poly(-1, 1, "A")

    def test_negativity_on_grid(self):
        with PREC.workdps():
            for i in range(13):
                for t in DEFAULT_NEGATIVITY_GRID.values(PREC):
                    assert f_poly(i, t, "A", PREC) < 0

    @settings(deadline=None, max_examples=30)
    @given(
        i=st.integers(min_value=0, max_value=10),
        num=st.integers(min_value=1, max_value=99),
        den=st.integers(min_value=1, max_value=9),
    )
    def test_a_b_equivalence_property(self, i, num, den):
        t = Fraction(num, den)
        assert f_poly(i, t, "A") == f_poly(i, t, "B")


class TestInequalityScans:
    def test_trigamma_scan(self):
        report = check_ineq_trigamma(prec=PREC)
        assert report.passed
        assert report.evaluations == DEFAULT_TRIGAMMA_GRID.points
        assert report.argmin_t == 100
        assert_close(report.min_margin, TRIGAMMA_MARGIN_AT_100, rel="1e-30")

    def test_bessel_scan(self):
        report = check_ineq_bessel(prec=PREC)
        assert report.passed
        assert report.argmin_t == DEFAULT_BESSEL_GRID.values(PREC)[0]
        assert_close(report.min_margin, BESSEL_MARGIN_AT_GRID_MIN, rel="1e-30")

    def test_margin_against_mpmath_route(self):
        # sample points recomputed through mpmath's Bessel and zeta
        with mp.workdps(70):
            for t in (mp.mpf("0.05"), mp.mpf(1), mp.mpf(20)):
                bessel_margin = mp.besseli(1, t) - (t / 2) ** 3 / (
                    1 - mp.exp(-((t / 2) ** 2))
                )
                trig_margin = mp.exp(1 / t) - 1 - mp.zeta(2, t)
                assert bessel_margin > 0
                assert trig_margin > 0

    def test_small_t_margin_needs_precision(self):
        # below t = 0.2 the Bessel margin drops under 1e-7, the regime the
        # scan must resolve without losing it to roundoff
        with PREC.workdps():
            grid = DEFAULT_BESSEL_GRID.values(PREC)
            small = [t for t in grid if t <= mp.mpf("0.2")]
            assert len(small) >= 30
            report = check_ineq_bessel(LogGrid(1e-2, 0.2, 40), PREC)
            assert report.passed
            assert report.min_margin < mp.mpf("1e-7")

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_printed_bessel_margin_digits(self, digits):
        # the minimum margin carries all `digits` digits, against the direct
        # subtraction through mpmath at three times the digits
        prec = WorkingPrecision(digits)
        report = check_ineq_bessel(LogGrid(1e-2, 0.2, 5), prec)
        got, t = report.min_margin, report.argmin_t
        with mp.workdps(3 * digits):
            want = mp.besseli(1, t) - (t / 2) ** 3 / (-mp.expm1(-((t / 2) ** 2)))
            assert abs(got - want) <= mp.mpf(10) ** -(digits + 3) * want

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_bessel_ball_encloses_interval_arithmetic(self, digits):
        # each margin's ball holds mpmath's interval enclosure of the direct
        # difference at three times the digits: at t = 0.01, where the
        # margin is 5.4e-19 and the difference cancels 16 digits, on either
        # side of the branch point t = 1 (u = 1/4) and on a scan grid
        prec = WorkingPrecision(digits)
        with prec.workdps():
            ts = [mp.mpf(t) for t in ("0.01", "0.2", "0.999", "1", "3", "50")]
            ts += LogGrid(1e-2, 50, 7).values(prec)
            balls = inequalities._bessel_margins(ts, prec)
        for t, (margin, radius) in zip(ts, balls):
            lo, hi = oracles.interval_bessel_margin(t, 3 * prec.working_dps)
            low = mp.fsub(margin, radius, exact=True)
            high = mp.fadd(margin, radius, exact=True)
            assert low <= lo <= hi <= high, t
            # a relative radius, which decides every sign
            assert radius < margin * mp.mpf(10) ** -digits, t

    def test_custom_grid(self):
        report = check_ineq_trigamma(LogGrid(0.5, 2, 10), PREC)
        assert report.passed
        assert report.evaluations == 10

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_two_pass_trigamma_equals_the_one_pass_scan(self, digits):
        # the 30-digit balls of h - 1 pick the candidates; the report is the
        # one of evaluating trigamma_margin(t) at every grid point
        prec = WorkingPrecision(digits)
        grids = (LogGrid(1e-2, 100, 40), DEFAULT_TRIGAMMA_GRID)
        for grid in grids + (LogGrid("1e-3", "1e6", 25),):
            got = check_ineq_trigamma(grid, prec)
            assert got == oracles.one_pass_trigamma(grid, prec)

    def test_undecided_bessel_margin_is_refused(self, monkeypatch):
        # a margin whose radius holds 0 has no sign: the scan refuses it at
        # the point the walk reaches it, naming that point
        margins = inequalities._bessel_margins

        def widened(ts, prec):
            out = margins(ts, prec)
            margin, _ = out[2]
            out[2] = (margin, 2 * margin)
            return out

        monkeypatch.setattr(inequalities, "_bessel_margins", widened)
        grid = LogGrid(1e-2, 1, 5)
        with pytest.raises(NumericFailure, match="undecided") as failure:
            check_ineq_bessel(grid, PREC)
        assert failure.value.operation == "check_ineq_bessel"
        assert failure.value.inputs == {"t": grid.values(PREC)[2]}

    def test_past_the_cap_the_margins_settle_the_signs(self):
        # at 30 digits the rung declines h - 1 from t = 2.6e10 on; the margin
        # there, about 1/(24 t^4), is taken through refine, whose balls lie
        # off 0, so the scan to 1e12 passes as the one-pass walk does
        prec = WorkingPrecision(30)
        grid = LogGrid("1e-3", "1e12", DEFAULT_TRIGAMMA_GRID.points)
        got = check_ineq_trigamma(grid, prec)
        assert got.passed
        assert got == oracles.one_pass_trigamma(grid, prec)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_bessel_scan_equals_the_point_by_point_scan(self, digits):
        # every margin from one sequence evaluation of the h kernel; the
        # report is the one of bessel_margin(t) at each grid point in turn
        prec = WorkingPrecision(digits)
        for grid in (LogGrid(1e-2, 50, 40), DEFAULT_BESSEL_GRID):
            assert check_ineq_bessel(grid, prec) == oracles.one_pass_bessel(grid, prec)

    @pytest.mark.parametrize("digits", (30, 50))
    def test_margins_come_from_the_balls(self, monkeypatch, digits):
        # the scan takes a margin at prec only at ball_minimum's candidates,
        # as picked from the sign rung's balls of h - 1 alone, each in passes
        # at rising digits from prec on: one where h - 1 does not cancel, a
        # raise where it does (h ~ 1 + 1/(24 t^4) at large t)
        prec = WorkingPrecision(digits)
        calls = []
        margin = inequalities.trigamma_margin

        def counted(t, prec):
            calls.append(t)
            return margin(t, prec)

        monkeypatch.setattr(inequalities, "trigamma_margin", counted)
        passes = oracles.h_table_passes(monkeypatch, inequalities)
        for grid in (LogGrid(1e-2, 100, 40), LogGrid("1e-3", "1e6", 25)):
            calls.clear()
            passes.clear()
            got = check_ineq_trigamma(grid, prec)
            with prec.workdps():
                ts = grid.values(prec)
            balls = [(t, h_sign_balls(0, t, prec, less=1)[0]) for t in ts]
            assert calls == oracles.ball_candidates(balls)
            assert sorted(passes) == sorted(calls)
            for t, levels in passes.items():
                assert levels[0] == prec.digits
                assert levels == sorted(set(levels))
                assert len(levels) == (1 if t < 10 else 2)
            assert got == oracles.one_pass_trigamma(grid, prec)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_margin_keeps_its_digits(self, digits):
        # h(t) - 1 cancels about 4 log10 t + 1.4 digits at large t; the margin
        # is right to its own digits against mpmath at three times the digits
        # plus that cancellation (h_function(t) - 1 was 3.4e-22 off at t = 1e6
        # and 30 digits)
        prec = WorkingPrecision(digits)
        for t in ("0.01", "1", "100", "1e3", "1e6", "1e20"):
            got = inequalities.trigamma_margin(t, prec)
            with mp.workdps(3 * digits + 90):
                x = mp.mpf(t)
                want = mp.exp(1 / x) - mp.psi(1, x) - 1
                assert abs(got - want) <= abs(want) * mp.mpf(10) ** -(digits + 2), t


class TestDifferenceBound:
    def test_both_sides_negative_and_ordered(self):
        check = check_difference_bound(0, 1, PREC)
        assert check.passed
        assert check.lhs < 0
        assert check.rhs < 0
        assert check.lhs < check.rhs

    def test_rhs_closed_form_at_origin_case(self):
        # i = 0, t = 1: rhs = 0! f_0(1) / (12 * 1 * 2^3) = -2/96 = -1/48
        with PREC.workdps():
            check = check_difference_bound(0, 1, PREC)
            assert abs(check.rhs + mp.mpf(1) / 48) <= mp.mpf("1e-45")

    def test_lhs_matches_h_values(self):
        with PREC.workdps():
            check = check_difference_bound(0, 2, PREC)
            direct = h_function(3, PREC) - h_function(2, PREC)
            assert abs(check.lhs - direct) <= mp.mpf("1e-45") * abs(direct)
            check = check_difference_bound(2, 2, PREC)
            direct = h_derivative(2, 3, PREC) - h_derivative(2, 2, PREC)
            assert abs(check.lhs - direct) <= mp.mpf("1e-45") * abs(direct)

    def test_battery_over_orders_and_points(self):
        with PREC.workdps():
            for i in range(7):
                for t in ("0.3", 1, 5, 40):
                    check = check_difference_bound(i, t, PREC)
                    assert check.passed, (i, t)

    @pytest.mark.parametrize("digits", (30, 50))
    def test_suite_tables_give_the_same_checks(self, digits):
        # proof-algebra takes every h^(i) from one ball table of the orders
        # 0..6 at t and one at t + 1; each check keeps check_difference_bound's
        # verdict and rhs, and its lhs to the digits asked for.  Every check
        # passes at 30 digits too, i = 5 and 6 at t = 50 included, where rhs
        # is about -1e-15: its sign is exact, and lhs's radius is far below
        # rhs - lhs
        prec = WorkingPrecision(digits)
        with prec.workdps():
            rel = mp.mpf(10) ** (5 - digits)
            for t in LogGrid(0.25, 50, 25).values(prec):
                at, after = (
                    h_balls(0, 6, x, prec)
                    for x in (t, mp.fadd(t, 1, exact=True))
                )
                for i in range(7):
                    got = _difference_bound(i, t, at[i], after[i], prec)
                    want = check_difference_bound(i, t, prec)
                    assert (got.passed, got.rhs) == (want.passed, want.rhs), (i, t)
                    assert abs(got.lhs - want.lhs) <= rel * abs(want.lhs), (i, t)
                    assert got.passed, (i, t)

    def test_rhs_sign_is_exact(self):
        # at t = 50 the right side of i = 6 is about -2e-16, and it is the
        # exact rational, rounded once
        check = check_difference_bound(6, 50, WorkingPrecision(30))
        assert check.passed
        q = Fraction(50)
        exact = 720 * f_poly(6, q) / (12 * q**9 * (q + 1) ** 9)
        assert exact < 0
        with WorkingPrecision(30).workdps():
            assert check.rhs == to_mpf(exact)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_difference_bound(-1, 1, PREC)
        with pytest.raises(ValueError):
            check_difference_bound(0, 0, PREC)


class TestGridDefaults:
    def test_shapes(self):
        assert DEFAULT_TRIGAMMA_GRID == LogGrid(1e-2, 100, 500)
        assert DEFAULT_BESSEL_GRID == LogGrid(1e-2, 50, 500)
        assert DEFAULT_NEGATIVITY_GRID.points == 60
