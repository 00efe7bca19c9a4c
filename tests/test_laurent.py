"""Remainder family H_k, its derivatives, and h = e^(1/t) - psi' against
subtractive, termwise, and finite-difference oracles."""

import random
import time
from fractions import Fraction
from math import log2, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from oracles import CoarseStop, tail_scaled_derivatives
from cmcheck import (
    DEFAULT_PRECISION,
    LogGrid,
    NumericFailure,
    WorkingPrecision,
    a_coeff,
    check_sign_pattern,
    h_derivative,
    h_function,
    h_table,
    hk_table,
    polygamma_range,
    remainder_hk,
    remainder_hk_derivative,
    scaled_remainder_derivative,
    to_mpf,
)
from cmcheck.cmdeg import DEFAULT_H_GRID, ScaledTailOracle
from cmcheck.inequalities import (
    DEFAULT_TRIGAMMA_GRID,
    _h_minus_one_ball,
    trigamma_margin,
)
from cmcheck import laurent
from cmcheck.laurent import (
    _h_cancelled_bits,
    _hk_exp_parts,
    _hk_exp_side,
    _lah_rows,
    _sign_width,
    h_balls,
    h_sign_balls,
    hk_sums,
)
from cmcheck.specfun import _SERIES_LIMIT, _dyadic, polygamma_fixed

PREC = DEFAULT_PRECISION

# frozen from the subtractive route e^(1/z) - partial sum at 160 dps
H2_HALF = "2.3890560989306502272304274605750078131803155705518"
H0_TEN = "0.10517091807564762481170782649024666822454719473752"
H3_TWO = "0.0028879373667948135153174544808302383204427673768147"
# frozen from explicit termwise differentiation at 80 dps
D2_H1_AT_2 = "0.26522539709379004589020337119192611614180503147192"
SCALED_D1_H0_R1_T3 = "-0.069591716609273647581249786931608774934728989867062"
# frozen from the exact derivative polynomial plus Hurwitz zeta
H_DERIV2_THREE_HALVES = "0.12985931942347948979296801879382825791457064311347"
H_DERIV1_ONE = "-0.31416802213985666456081114832976251622727450901896"
H_DERIV8_THOUSAND = "2.7803166921316773357661064089411227758263166423777e-31"


def assert_close(value, reference, rel="1e-45"):
    with mp.workdps(80):
        want = mp.mpf(reference)
        assert abs(value - want) <= mp.mpf(rel) * abs(want), (
            mp.nstr(value, 30),
            mp.nstr(want, 30),
        )


class TestRemainder:
    def test_subtractive_oracle(self):
        for k in range(6):
            for z in ("0.5", 1, 2, 5):
                ref = oracles.subtractive_remainder(k, z, dps=160)
                assert_close(remainder_hk(k, z, PREC), ref, rel="1e-30")

    def test_frozen_values(self):
        assert_close(remainder_hk(2, "0.5", PREC), H2_HALF)
        assert_close(remainder_hk(0, 10, PREC), H0_TEN)
        assert_close(remainder_hk(3, 2, PREC), H3_TWO)

    def test_k0_closed_form(self):
        with mp.workdps(70):
            assert_close(remainder_hk(0, 1, PREC), mp.e - 1, rel="1e-48")

    def test_positive_and_decreasing_in_k(self):
        values = [remainder_hk(k, 1, PREC) for k in range(8)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_leading_asymptotic(self):
        # z^(k+1) H_k(z) -> 1/(k+1)! with the next term down by 1/(z (k+2))
        with PREC.workdps():
            z = mp.mpf("1e8")
            for k in range(4):
                scaled = z ** (k + 1) * remainder_hk(k, z, PREC)
                lead = 1 / mp.factorial(k + 1)
                assert abs(scaled - lead) < 2 / (mp.factorial(k + 2) * z)

    def test_domain(self):
        with pytest.raises(ValueError):
            remainder_hk(-1, 1, PREC)
        with pytest.raises(ValueError):
            remainder_hk(0, 0, PREC)
        # k = 60000 sums its series at 1e-5, whose first stop passes the budget
        with pytest.raises(NumericFailure):
            remainder_hk(60000, "1e-5", PREC)


class TestRemainderDerivatives:
    def test_termwise_oracle(self):
        for k, n, t in ((0, 1, 1), (1, 2, 2), (2, 3, "0.7"), (4, 1, 5)):
            ref = oracles.tail_derivative_partial(k, 0, n, t, terms=300, dps=80)
            assert_close(remainder_hk_derivative(k, n, t, PREC), ref, rel="1e-40")

    def test_frozen_value(self):
        assert_close(remainder_hk_derivative(1, 2, 2, PREC), D2_H1_AT_2)

    def test_central_difference(self):
        for k, n, t in ((0, 1, 1), (1, 2, "1.5"), (2, 3, 2)):
            ref = oracles.central_difference(
                lambda u: remainder_hk(k, u, PREC), n, t
            )
            assert_close(remainder_hk_derivative(k, n, t, PREC), ref, rel="1e-8")

    def test_order_zero_is_value(self):
        assert_close(
            remainder_hk_derivative(2, 0, "0.5", PREC),
            remainder_hk(2, "0.5", PREC),
            rel="1e-48",
        )

    def test_alternating_signs(self):
        with PREC.workdps():
            for n in range(7):
                value = remainder_hk_derivative(1, n, "0.8", PREC)
                assert (-1) ** n * value > 0


class TestScaledDerivatives:
    def test_frozen_value(self):
        assert_close(scaled_remainder_derivative(0, 1, 1, 3, PREC), SCALED_D1_H0_R1_T3)

    def test_termwise_oracle(self):
        for k, r, n, t in ((0, 1, 1, 3), (1, "1.5", 2, "0.6"), (2, 3, 2, 4)):
            ref = oracles.tail_derivative_partial(
                k, float(Fraction(str(r))), n, t, terms=300, dps=80
            )
            assert_close(
                scaled_remainder_derivative(k, r, n, t, PREC), ref, rel="1e-38"
            )

    def test_product_rule(self):
        # d/dt [t^r H_k] = r t^(r-1) H_k + t^r H_k'
        with PREC.workdps():
            k, t = 2, mp.mpf("0.7")
            r = mp.mpf("1.5")
            lhs = scaled_remainder_derivative(k, "1.5", 1, "0.7", PREC)
            rhs = r * t ** (r - 1) * remainder_hk(k, t, PREC) + t ** r * (
                remainder_hk_derivative(k, 1, t, PREC)
            )
            assert abs(lhs - rhs) < mp.mpf("1e-40") * abs(rhs)

    def test_one_pass_matches_singles(self):
        with PREC.workdps():
            vals = tail_scaled_derivatives(1, 2, "0.9", 4, PREC)
            assert len(vals) == 5
            for n, v in enumerate(vals):
                single = scaled_remainder_derivative(1, 2, n, "0.9", PREC)
                assert abs(v - single) <= mp.mpf("1e-45") * abs(single)

    def test_order_zero_scaling(self):
        with PREC.workdps():
            t = mp.mpf(3)
            expected = t ** 2 * remainder_hk(1, 3, PREC)
            got = tail_scaled_derivatives(1, 2, 3, 0, PREC)[0]
            assert abs(got - expected) <= mp.mpf("1e-45") * abs(expected)

    @settings(deadline=None, max_examples=20)
    @given(
        k=st.integers(min_value=0, max_value=3),
        r=st.floats(min_value=0.1, max_value=3),
        t=st.floats(min_value=0.2, max_value=20),
    )
    def test_product_rule_property(self, k, r, t):
        with PREC.workdps():
            rr = to_mpf(r)
            tt = to_mpf(t)
            lhs = scaled_remainder_derivative(k, r, 1, t, PREC)
            rhs = rr * tt ** (rr - 1) * remainder_hk(k, tt, PREC) + tt ** rr * (
                remainder_hk_derivative(k, 1, tt, PREC)
            )
            assert abs(lhs - rhs) <= mp.mpf("1e-35") * max(abs(rhs), mp.mpf(1))


class TestHkTable:
    GRID = LogGrid(1e-2, 1e6, 60)

    def points(self, prec):
        # the scan grid, a full-mantissa t that is no short decimal, and 1e12
        with prec.workdps():
            return self.GRID.values(prec) + (mp.sqrt(2) * 7 / 3, mp.mpf("1e12"))

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_matches_termwise_route(self, digits):
        prec = WorkingPrecision(digits)
        with prec.workdps():
            rel = mp.mpf(10) ** (3 - digits)
            for k in range(5):
                for t in self.points(prec):
                    table = hk_table(k, t, 6, prec)
                    assert len(table) == 7
                    termwise = oracles.termwise_table(k, 0, t, prec)
                    for n, (got, want) in enumerate(zip(table, termwise)):
                        assert (-1) ** n * got > 0
                        assert abs(got - want) <= rel * abs(want), (k, n, t)

    def test_rescaled_sums_match_termwise_route(self):
        # below t ~ 4e-3 the terms outgrow 2^(2 wp) and the sums are rescaled
        prec = WorkingPrecision(30)
        with prec.workdps():
            rel = mp.mpf(10) ** (3 - prec.digits)
            for k in (0, 3):
                for t in ("1e-3", "2e-4"):
                    table = hk_table(k, t, 3, prec)
                    termwise = tail_scaled_derivatives(k, 0, t, 3, prec)
                    for got, want in zip(table, termwise):
                        assert abs(got - want) <= rel * abs(want), (k, t)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_one_order_calls_are_table_entries(self, digits):
        prec = WorkingPrecision(digits)
        with prec.workdps():
            rel = mp.mpf(10) ** (3 - digits)
            for k in (0, 2, 4):
                for t in ("1e-2", "0.37", 1, "2.5", "1e3", "1e12"):
                    table = hk_table(k, t, 6, prec)
                    want = table[0]
                    assert abs(remainder_hk(k, t, prec) - want) <= rel * want
                    for n in range(1, 7):
                        got = remainder_hk_derivative(k, n, t, prec)
                        assert abs(got - table[n]) <= rel * abs(table[n]), (k, n, t)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_sign_pattern_reports_agree(self, digits):
        # the integer Leibniz brackets over hk_sums against the termwise
        # series summed afresh at each r
        prec = WorkingPrecision(digits)
        with prec.workdps():
            rel = mp.mpf(10) ** (3 - digits)
            for k in range(5):
                fast = ScaledTailOracle(k, 6, prec)
                for r in (k + 1, k + Fraction(33, 32), k + Fraction(5, 4)):
                    got = check_sign_pattern(fast.at(r), self.GRID, 6, prec)
                    slow = oracles.termwise_oracle(k, r, prec)
                    want = check_sign_pattern(slow, self.GRID, 6, prec)
                    assert got.passed == want.passed == (r == k + 1)
                    assert got.evaluations == want.evaluations
                    assert (got.argmin_order, got.argmin_t) == (
                        want.argmin_order,
                        want.argmin_t,
                    )
                    if not want.passed:
                        assert (got.violation.order, got.violation.t) == (
                            want.violation.order,
                            want.violation.t,
                        )
                        assert abs(got.violation.value - want.violation.value) <= (
                            rel * abs(want.violation.value)
                        )

    def test_first_stop_past_the_budget_fails(self):
        # 1.5/t = 1.5e5 puts the first stop of k = 60000, which sums its
        # series at 1e-5, past the 200000-term budget; the termwise reference
        # at 1e-7 (1.5/t = 1.5e7) keeps its own record
        cases = (
            (lambda: hk_table(60000, "1e-5", 6, PREC), "hk_sums", {"k", "t"}),
            (
                lambda: tail_scaled_derivatives(0, 0, "1e-7", 6, PREC),
                "tail_scaled_derivatives",
                {"k", "r", "t"},
            ),
        )
        for table, operation, inputs in cases:
            with pytest.raises(NumericFailure) as excinfo:
                table()
            failure = excinfo.value
            assert failure.operation == operation
            assert failure.detail == "series budget exhausted"
            assert set(failure.inputs) == inputs

    def test_exhausted_budget(self):
        with pytest.raises(NumericFailure, match="series budget exhausted"):
            hk_table(1, 3, 0, NoStop(30))

    def test_domain(self):
        with pytest.raises(ValueError):
            hk_table(-1, 1, 2, PREC)
        with pytest.raises(ValueError):
            hk_table(0, 1, -1, PREC)
        with pytest.raises(ValueError):
            hk_table(0, 0, 2, PREC)


class TestHkSums:
    @staticmethod
    def points(prec):
        # 2e-4 sums rescaled, 0.01 the bench grid's start, a full-mantissa t
        # that is no short decimal, and large t where the prefix dominates
        with prec.workdps():
            return [mp.mpf(v) for v in ("1e-3", "2e-4", "0.01")] + [
                mp.sqrt(2) * 7 / 3,
                mp.mpf(32),
                mp.mpf("1e6"),
                mp.mpf("1e12"),
            ]

    @pytest.mark.parametrize(
        "prec",
        (WorkingPrecision(30), WorkingPrecision(50), WorkingPrecision(100), CoarseStop(30)),
        ids=("30", "50", "100", "coarse-30"),
    )
    def test_radii_enclose_the_termwise_sums(self, prec):
        # S_n 2^exp <= T_n <= (S_n + radii[n]) 2^exp in integers, with T_n
        # from the termwise route at three times the digits (the coarse stop
        # shares the 90-digit sums of the 30-digit case)
        fine = WorkingPrecision(3 * prec.digits)
        for t in self.points(prec):
            for k in range(5):
                core = hk_sums(k, t, 6, prec)
                exact = oracles.termwise_table(k, 0, t, fine)
                with fine.workdps():
                    for n in range(7):
                        # T_n = (-1)^n H_k^(n)(t) t^n / lead
                        total = (-1) ** n * exact[n] * t ** (n + k + 1) * mp.factorial(k + 1)
                        man, e = _dyadic(total)
                        low = Fraction(core.sums[n]) * Fraction(2) ** core.exp
                        high = low + Fraction(core.radii[n]) * Fraction(2) ** core.exp
                        assert low <= Fraction(man, 2**e) <= high, (k, n, t)

    def test_lah_table(self):
        # (m)^(n) = sum_j L(n,j) m (m-1) ... (m-j+1), exactly
        rows = _lah_rows(12)
        assert len(rows) == 12
        for n, (row, weight) in enumerate(rows, 1):
            assert len(row) == n and weight == sum(row)
            for m in range(41):
                rising = prod(range(m, m + n))
                falling = [prod(range(m - j + 1, m + 1)) for j in range(1, n + 1)]
                assert rising == sum(map(mul, row, falling)), (n, m)


class TestHkSeam:
    """hk_sums on both sides of its seam x = 1/t = 2(k+1): the series below
    it, one exponential less the head from it on."""

    @staticmethod
    def points(k, prec):
        # down to 1.0001e-5, a third of the seam, the seam and its two
        # neighbours one ulp away, and three times the seam; 1/(2k+2) is a
        # dyadic for k = 0 and 1 only, where the seam itself takes the exp
        # route.  The termwise reference sums about 2/t terms, so the points
        # stop near 1e-5, where a series would reach the 200000-term budget
        with prec.workdps():
            seam = mp.mpf(1) / (2 * k + 2)
            ulp = mp.ldexp(seam, 1 - mp.prec)
            return [mp.mpf("1.0001e-5"), mp.mpf("1e-3"), seam / 3, seam - ulp, seam,
                    seam + ulp, 3 * seam]

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_radii_enclose_the_termwise_sums(self, digits):
        # S_n 2^exp <= T_n <= (S_n + radii[n]) 2^exp in integers, with T_n
        # summed termwise in integers at three times the digits
        prec = WorkingPrecision(digits)
        with WorkingPrecision(3 * digits).workdps():
            bits = mp.prec
        for k in (0, 1, 4, 12):
            sides = []
            for t in self.points(k, prec):
                den, e = _dyadic(t)
                sides.append(_hk_exp_side(k, den, e))
                core = hk_sums(k, t, 6, prec)
                exact = oracles.rising_sums(k, t, 6, bits)
                for n in range(7):
                    low = Fraction(core.sums[n]) * Fraction(2) ** core.exp
                    high = low + Fraction(core.radii[n]) * Fraction(2) ** core.exp
                    assert low <= exact[n] <= high, (k, n, t)
            assert sides[:4] == [True] * 4 and sides[-2:] == [False] * 2, k
            if k < 2:
                assert sides[4], k

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_subtraction_cancels_few_bits(self, digits):
        # e^x less the head loses at most log2((k+3)/2) bits, plus one for
        # the bit lengths, wherever the exp route is taken
        prec = WorkingPrecision(digits)
        for k in (0, 1, 4, 12):
            for t in self.points(k, prec)[:5]:
                den, e = _dyadic(t)
                if not _hk_exp_side(k, den, e):
                    continue
                power, head, _ = _hk_exp_parts(k, den, e, prec.bits)
                lost = power.bit_length() - (power - head).bit_length()
                assert lost <= log2((k + 3) / 2) + 1, (k, t)

    @pytest.mark.parametrize("digits", (30, 50))
    def test_exp_route_has_no_series_budget(self, digits):
        # the exp route sums no series, so t far below the series budget's
        # reach is served: sums and radii enclose T_n from e^x at 4000 bits
        # and the Lah identity of hk_sums' docstring
        prec = WorkingPrecision(digits)
        for k, z in ((0, "1e-5"), (3, "1e-5"), (0, "1e-7"), (3, "1e-7"), (2, "1e-60")):
            with prec.workdps():
                t = mp.mpf(z)
            core = hk_sums(k, t, 6, prec)
            with mp.workprec(4000):
                x = 1 / t
                head = sum(x**m / mp.factorial(m) for m in range(k + 1))
                t0 = mp.factorial(k + 1) * x ** -(k + 1) * (mp.exp(x) - head)
                for n in range(7):
                    exact = t0
                    if n:
                        exact = sum(
                            weight * (x**j * t0 + sum(
                                mp.ff(k + 1, d) * x ** (j - d)
                                for d in range(1, min(j, k + 1) + 1)
                            ))
                            for j, weight in enumerate(_lah_rows(n)[-1][0], 1)
                        )
                    exact = mp.ldexp(exact, -core.exp)
                    assert core.sums[n] <= exact <= core.sums[n] + core.radii[n], (k, z, n)

    def test_exp_route_budget(self):
        # the exp route refuses x past 2^(wp+1), where 1/t outgrows the
        # fixed-point reciprocal of the derived orders, and k + 3 + max_order
        # past the series budget; the record names hk_sums, k and t
        for k, z, max_order in ((0, "1e-70", 0), (0, "0.01", _SERIES_LIMIT)):
            with pytest.raises(NumericFailure) as excinfo:
                hk_table(k, z, max_order, WorkingPrecision(30))
            failure = excinfo.value
            assert (failure.operation, failure.detail) == (
                "hk_sums",
                "exp route budget exhausted",
            )
            assert set(failure.inputs) == {"k", "t"}
        # 1e-60 is inside the exp route's budget at 30 digits
        assert hk_table(0, "1e-60", 0, WorkingPrecision(30))[0] > 0

    def test_integer_reference_matches_the_termwise_route(self):
        # the integer termwise sums of the seam tests against the mpf
        # termwise route, both at 90 digits
        fine = WorkingPrecision(90)
        with fine.workdps():
            bits = mp.prec
            for k in (0, 4):
                for t in (mp.mpf("0.01"), mp.mpf("0.3")):
                    exact = oracles.rising_sums(k, t, 6, bits)
                    termwise = oracles.termwise_table(k, 0, t, fine)
                    for n in range(7):
                        total = (-1) ** n * termwise[n] * t ** (n + k + 1) * mp.factorial(k + 1)
                        want = oracles.mpf_from_fraction(exact[n])
                        assert abs(total - want) <= mp.mpf("1e-93") * want, (k, n, t)


class TestHFunction:
    def test_closed_form_at_one(self):
        with mp.workdps(70):
            assert_close(h_function(1, PREC), mp.e - mp.pi ** 2 / 6, rel="1e-48")

    def test_frozen_derivatives(self):
        assert_close(h_derivative(2, "1.5", PREC), H_DERIV2_THREE_HALVES)
        assert_close(h_derivative(1, 1, PREC), H_DERIV1_ONE)
        assert_close(h_derivative(8, 1000, PREC), H_DERIV8_THOUSAND, rel="1e-40")

    def test_limit_and_monotonicity(self):
        with PREC.workdps():
            assert abs(h_function(100, PREC) - 1) < mp.mpf("1e-8")
            assert abs(h_function("1e6", PREC) - 1) < mp.mpf("1e-12")
            samples = [h_function(t, PREC) for t in ("0.2", "0.5", 1, 2, 10)]
            assert all(a > b for a, b in zip(samples, samples[1:]))
            assert all(s > 1 for s in samples)

    def test_alternating_derivative_signs(self):
        for i in range(1, 7):
            for t in ("0.3", 1, 10):
                assert (-1) ** i * h_derivative(i, t, PREC) > 0

    def test_order_zero_redirects(self):
        with pytest.raises(ValueError, match="h_function"):
            h_derivative(0, 1, PREC)

    def test_domain(self):
        with pytest.raises(ValueError):
            h_function(0, PREC)
        with pytest.raises(ValueError):
            h_derivative(1, -3, PREC)


class NoStop(WorkingPrecision):
    @property
    def series_stop(self):
        return mp.mpf(0)


class TestHTable:
    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_entries_match_one_order_calls(self, digits):
        prec = WorkingPrecision(digits)
        with prec.workdps():
            rel = mp.mpf(10) ** (3 - digits)
            for t in ("0.05", "0.3", 1, "7.5", 99, "1e3", "1e6"):
                table = h_table(0, 8, t, prec)
                assert len(table) == 9
                for i, got in enumerate(table):
                    want = h_function(t, prec) if i == 0 else h_derivative(i, t, prec)
                    sign = (-1) ** i
                    assert sign * got > 0 and sign * want > 0, (i, t)
                    assert abs(got - want) <= rel * abs(want), (i, t)

    def test_sub_range_is_a_slice(self):
        with PREC.workdps():
            full = h_table(0, 6, 2, PREC)
            part = h_table(3, 5, 2, PREC)
            rel = mp.mpf(10) ** (3 - PREC.digits)
            for got, want in zip(part, full[3:6]):
                assert abs(got - want) <= rel * abs(want)

    def test_failure_carries_the_polygamma_operation(self):
        with pytest.raises(NumericFailure) as excinfo:
            h_table(0, 8, 1, NoStop(30))
        assert excinfo.value.operation == "polygamma"
        # the integer core raises it, with the same detail and inputs
        with pytest.raises(NumericFailure) as core:
            polygamma_fixed(1, 9, 1, NoStop(30))
        assert (core.value.operation, core.value.detail, core.value.inputs) == (
            excinfo.value.operation,
            excinfo.value.detail,
            excinfo.value.inputs,
        )

    ENCLOSURE_TS = ("1e-3", "0.05", "1", "99.5", "100", "100.5", "1e3", "1e6")

    @staticmethod
    def parts(i, t):
        """(E, P): the i-th derivative of e^(1/t) by the a_{i,k} closed form,
        and psi^(i+1)(t) by mpmath, at the current precision."""
        x = 1 / t
        poly = sum(a_coeff(i, k) * x ** (2 * i - k) for k in range(i))
        return (-1) ** i * mp.exp(x) * (poly if i else 1), mp.psi(i + 1, t)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_within_the_error_bound(self, digits):
        # |h^(i) - exact| <= 2^-prec (|h^(i)| + |E| + |P|) + series_stop |P|,
        # the h_table bound, with E and P at three times the digits; the
        # target +- 1/2 of polygamma_fixed(1, 9), working_dps // 2 + 1 here,
        # sits on both sides of its shift
        prec = WorkingPrecision(digits)
        target = prec.working_dps // 2 + 1
        with prec.workdps():
            ts = [mp.mpf(t) for t in self.ENCLOSURE_TS]
            ts += [target - mp.mpf("0.5"), mp.mpf(target), target + mp.mpf("0.5")]
            eps = mp.ldexp(1, -mp.prec)
            stop = prec.series_stop
        for t in ts:
            table = h_table(0, 8, t, prec)
            with mp.workdps(3 * prec.working_dps):
                for i, got in enumerate(table):
                    exp_part, psi = self.parts(i, t)
                    want = exp_part - psi
                    bound = eps * (abs(want) + abs(exp_part) + abs(psi)) + stop * abs(psi)
                    assert abs(got - want) <= bound, (i, t)

    @staticmethod
    def assert_refused_past_the_raises(failure, t, prec):
        # h^(i)(t), i >= 1, cancels about 3 log10 t digits, and each of the
        # three raises at most doubles the digits, so a refusal may only
        # come where that passes 7 times the digits, the ones left at the
        # last raise's 8 times
        assert failure.operation == "h_table"
        assert failure.inputs == {"t": t}
        assert failure.detail.startswith("error radius")
        with mp.workdps(30):
            assert 3 * mp.log10(t) > 7 * prec.digits, t

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_one_pass_up_to_three_thousand(self, digits, monkeypatch):
        # psi^(i+1) is summed one digit further per bit of t's exponent, so
        # its truncation stays under the cancellation and no table is raised
        prec = WorkingPrecision(digits)
        passes = oracles.h_table_passes(monkeypatch)
        with prec.workdps():
            ts = [mp.mpf(t) for t in ("0.05", "1", "2", "10", "99.5", "1e3", "3e3")]
        for t in ts:
            h_table(0, 8, t, prec)
        assert passes == {t: [digits] for t in ts}

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_large_t_keeps_its_digits(self, digits):
        # the parts cancel about 3 log10 t digits, 10 at t = 1e3, which the
        # table takes again at raised digits; the references are at three
        # times the digits plus that cancellation
        prec = WorkingPrecision(digits)
        with prec.workdps():
            stop = prec.series_stop
            ts = [
                mp.mpf(t)
                for t in ("1e3", "1e4", "1e6", "1e9", "1e25", "1e40", "1e80", "1e300")
            ]
        for t in ts:
            try:
                table = h_table(0, 8, t, prec)
            except NumericFailure as failure:
                self.assert_refused_past_the_raises(failure, t, prec)
                continue
            with mp.workdps(3 * prec.working_dps + 4 * int(mp.log10(t))):
                for i, got in enumerate(table):
                    exp_part, psi = self.parts(i, t)
                    want = exp_part - psi
                    assert abs(got - want) <= stop * abs(want), (i, t)

    def test_huge_t_stays_cheap(self):
        # every integer keeps about wq bits however large t is, and an h
        # table that three raises cannot settle is refused, so these take
        # milliseconds
        prec = WorkingPrecision(30)
        with prec.workdps():
            eps = mp.ldexp(1, 1 - mp.prec)
            stop = prec.series_stop
            ts = [mp.mpf(t) for t in ("1e300", "1e5000", "1e100000")]
        for t in ts:
            start = time.process_time()
            psi = polygamma_range(1, 9, t, prec)
            try:
                table = h_table(0, 8, t, prec)
            except NumericFailure as failure:
                self.assert_refused_past_the_raises(failure, t, prec)
                table = None
            assert time.process_time() - start < 1, t
            with prec.workdps():
                assert all(mp.isfinite(v) for v in psi)
                for n, value in enumerate(psi, 1):
                    # psi^(n)(t) = (-1)^(n+1) (n-1)!/t^n (1 + n/(2t) + ...)
                    lead = (-1) ** (n + 1) * mp.factorial(n - 1) / t**n
                    assert abs(value / lead - 1) <= eps, (n, t)
                if table is None:
                    continue
                # h = 1 + t^-4/24 + O(t^-5), so h^(i) = (-1)^i (i+3)!/144
                # t^-(i+4) (1 + O(1/t)) for i >= 1: correct to the stop
                assert abs(table[0] - 1) <= stop
                for i, value in enumerate(table[1:], 1):
                    lead = (-1) ** i * mp.factorial(i + 3) / 144 / t ** (i + 4)
                    assert abs(value / lead - 1) <= stop, (i, t)

    def test_domain(self):
        with pytest.raises(ValueError):
            h_table(-1, 2, 1, PREC)
        with pytest.raises(ValueError):
            h_table(3, 2, 1, PREC)
        with pytest.raises(ValueError):
            h_table(0, 2, 0, PREC)


class TestHBalls:
    """The balls of the table at prec that judge the signs the sign rung
    leaves undecided, and give both sides of the difference-bound check."""

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_radius_covers_the_documented_budget(self, digits):
        # each ball holds the exact h^(i)(t) (E and P at three times the
        # digits) and h_table's value at prec, and its radius is at least the
        # budget its docstring adds up: the table's own error, h_table's at
        # prec and one more rounding there, with S = s, the one series stop.
        # The targets +- 1/2 of polygamma_fixed at prec sit on both sides of
        # its shift
        prec = WorkingPrecision(digits)
        with prec.workdps():
            p, s = mp.prec, prec.series_stop
            ts = [mp.mpf(t) for t in ("1e-3", "0.05", "1", "99.5", "1e3", "1e6")]
            target = prec.working_dps // 2 + 1
            ts += [target - mp.mpf("0.5"), target + mp.mpf("0.5")]
        for t in ts:
            balls = h_balls(0, 8, t, prec)
            table = h_table(0, 8, t, prec)
            with mp.workdps(3 * prec.working_dps):
                for i, ((mid, rad, x), full) in enumerate(zip(balls, table)):
                    exp_part, psi = TestHTable.parts(i, t)
                    exact = exp_part - psi
                    unit = mp.ldexp(1, x)
                    centre, radius = mid * unit, rad * unit
                    assert abs(exact - centre) <= radius, (i, t)
                    assert abs(full - centre) <= radius, (i, t)
                    parts = abs(exp_part) + abs(psi)
                    budget = (
                        mp.ldexp(abs(exp_part), -(p + 1))
                        + (i + 1) * mp.ldexp(abs(psi), -(p + 21))
                        + 2 * unit
                        + mp.ldexp(abs(exact) + parts, -p)
                        + 3 * mp.ldexp(parts, -p)
                        + 2 * s * abs(psi)
                    )
                    assert radius >= budget, (i, t)

    def test_margin_ball_holds_the_rounded_margin(self):
        # the trigamma scan's ball of h - 1 holds h_function(t) - 1 as the
        # scan rounds it at prec
        for digits in (30, 100):
            prec = WorkingPrecision(digits)
            with prec.workdps():
                ts = [mp.mpf(t) for t in ("1e-3", "0.01", "1", "100")]
            for t in ts:
                mid, rad, x = _h_minus_one_ball(t, prec)
                with prec.workdps():
                    margin = h_function(t, prec) - 1
                with mp.workdps(3 * prec.working_dps):
                    exp_part, psi = TestHTable.parts(0, t)
                    unit = mp.ldexp(1, x)
                    assert abs(margin - mid * unit) <= rad * unit
                    assert abs(exp_part - psi - 1 - mid * unit) <= rad * unit

    def test_coarse_stops_are_refused(self):
        # the radius is proven for series stops up to 2^-80 only
        with pytest.raises(NumericFailure) as failure:
            h_balls(0, 2, 1, CoarseStop(50))
        assert failure.value.operation == "h_balls"
        assert h_balls(0, 2, 1, PREC) is not None


class TestHSignBalls:
    """The sign rung of the h and trigamma scans, whose bits grow with t."""

    @staticmethod
    def assert_holds(balls, t, prec, less=0, exact=True):
        """Each ball excludes 0 by a factor of 16 and holds h_table's value at
        prec (the trigamma margin's with less) and, with exact, the exact
        h^(i)(t) (h - 1 with less), E and P at three times the digits."""
        if less:
            values = [trigamma_margin(t, prec)]
        else:
            values = h_table(0, len(balls) - 1, t, prec)
        with mp.workdps(3 * prec.digits):
            for i, ((mid, rad, x), value) in enumerate(zip(balls, values)):
                unit = mp.ldexp(1, x)
                assert abs(mid) >= 16 * rad, (i, t)
                assert abs(value - mid * unit) <= rad * unit, (i, t)
                if exact:
                    exp_part, psi = TestHTable.parts(i, t)
                    want = exp_part - psi - less
                    assert abs(want - mid * unit) <= rad * unit, (i, t)

    @pytest.mark.parametrize("digits, stride", ((30, 2), (50, 5), (100, 10)))
    def test_balls_hold_both_values_on_the_default_grids(self, digits, stride):
        # every point of both grids decides every order; the exact values,
        # whose mpmath polygamma costs 1-8 ms an order, at every stride-th
        # point of the h grid and every 2 stride-th of the trigamma grid
        prec = WorkingPrecision(digits)
        with prec.workdps():
            hs = DEFAULT_H_GRID.values(prec)
            ts = DEFAULT_TRIGAMMA_GRID.values(prec)
        for j, t in enumerate(hs):
            balls = h_sign_balls(8, t, prec)
            assert balls is not None, t
            self.assert_holds(balls, t, prec, exact=j % stride == 0)
        for j, t in enumerate(ts):
            balls = h_sign_balls(0, t, prec, less=1)
            assert balls is not None, t
            self.assert_holds(balls, t, prec, less=1, exact=j % (2 * stride) == 0)

    def test_balls_hold_both_values_at_random_t(self):
        # 400 log-uniform t in [1e-3, 1e7] at 30 digits: every row is decided,
        # past t = 6e5 (h^(i)) and 1.5e4 (h - 1) with more than 64 bits
        prec = WorkingPrecision(30)
        rng = random.Random(3011)
        wide = 0
        for _ in range(400):
            with prec.workdps():
                t = mp.mpf(10) ** mp.mpf(rng.uniform(-3, 7))
            balls = h_sign_balls(8, t, prec)
            assert balls is not None, t
            self.assert_holds(balls, t, prec)
            margin = h_sign_balls(0, t, prec, less=1)
            assert margin is not None, t
            self.assert_holds(margin, t, prec, less=1)
            wide += _sign_width(8, t, prec) > 64
        assert 20 <= wide <= 100

    @pytest.mark.parametrize("digits", (30, 50))
    def test_decides_every_row_below_the_cap(self, digits):
        # log-uniform t in [1e-3, 1e16]: a row whose width _sign_width
        # gives is decided and holds the exact values.  The widening for
        # h_table's value caps the rung: at 30 digits h^(i) from t = 7.6e10
        # and h - 1 from 2.6e10, at 50 digits h - 1 from 2.4e15 and h^(i)
        # only past 1e16
        prec = WorkingPrecision(digits)
        rng = random.Random(3101 + digits)
        capped = {0: 0, 1: 0}
        for j in range(60):
            with prec.workdps():
                t = mp.mpf(10) ** mp.mpf(rng.uniform(-3, 16))
            for top, less in ((8, 0), (0, 1)):
                balls = h_sign_balls(top, t, prec, less=less)
                if _sign_width(top, t, prec, less) is None:
                    assert balls is None, t
                    capped[less] += 1
                    continue
                assert balls is not None, (top, less, t)
                self.assert_holds(balls, t, prec, less=less, exact=j % 3 == 0)
        assert capped[1] > 0
        assert (capped[0] > 0) == (digits == 30)

    @pytest.mark.parametrize("less", (0, 1))
    def test_decides_just_below_each_width_step(self, less):
        # the width steps where the count c of _h_cancelled_bits does: at t
        # just below a step (6 t^3 or 24 t^4 = 2^c (1 - 2^-16)) h^(i) or h - 1
        # cancels almost c bits, and one bit less of width leaves the ball
        # short of excluding 0 by 16, most of all near the cap, where the
        # widening takes most of the room
        prec = WorkingPrecision(30)
        power, lead = (4, 24) if less else (3, 6)
        steps = [61, 62, 70, 80, 90, 100, 105, 108, 109, 110]
        for c in steps:
            with mp.workdps(60):
                t = (mp.ldexp(1 - mp.ldexp(1, -16), c) / lead) ** (mp.mpf(1) / power)
            with prec.workdps():
                t = +t
            assert _h_cancelled_bits(t, less) == c
            top = 0 if less else 8
            assert _sign_width(top, t, prec, less) is not None, c
            balls = h_sign_balls(top, t, prec, less=less)
            assert balls is not None, c
            self.assert_holds(balls, t, prec, less=less, exact=c % 10 == 0)

    def test_cancelled_bits(self):
        # the bit length of 6 T^3 (24 T^4 with less), T >= t rounded up to
        # 32 bits: above log2(6 t^3), and at most one bit more than that
        # plus the rounding of T
        for t in ("1e-30", "0.3", "1", "7.5", "1e4", "123456.789", "1e7", "1e16", "1e300"):
            with PREC.workdps():
                t = mp.mpf(t)
            with mp.workdps(60):
                for less, lead, power in ((0, 6, 3), (1, 24, 4)):
                    want = mp.log(lead * t**power, 2)
                    got = _h_cancelled_bits(t, less)
                    assert want <= got <= want + 1 + 1e-8, (t, less)

    def test_cap_declines_before_any_sum(self, monkeypatch):
        # past the cap the rung returns None without a single sum
        def refuse(*args):
            raise AssertionError("summed past the cap")

        monkeypatch.setattr(laurent, "_exp_recip_fixed", refuse)
        monkeypatch.setattr(laurent, "_em_tail", refuse)
        prec = WorkingPrecision(30)
        for top, less, t in ((8, 0, "1e11"), (1, 0, "1e100000"), (0, 1, "1e11")):
            with prec.workdps():
                assert _sign_width(top, mp.mpf(t), prec, less) is None
            assert h_sign_balls(top, t, prec, less=less) is None

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_decides_every_cli_mix_row(self, digits):
        # the benchmark's cli-mix scans: h on 40 points from 0.05, raised by
        # up to 1%, to 1e3, and the trigamma margin on 40 points of the
        # default trigamma range
        prec = WorkingPrecision(digits)
        grids = [LogGrid(start, 1e3, 40) for start in ("0.05", "0.050005", "0.050495")]
        with prec.workdps():
            for grid in grids:
                for t in grid.values(prec):
                    assert h_sign_balls(8, t, prec) is not None, t
            for t in LogGrid(1e-2, 100, 40).values(prec):
                assert h_sign_balls(0, t, prec, less=1) is not None, t

    def test_declines(self):
        # a zero or coarse series stop, too many orders, and a row past the
        # cap get no balls; rows that cancel past 64 bits take more
        assert h_sign_balls(2, 1, NoStop(50)) is None
        assert h_sign_balls(2, 1, CoarseStop(50)) is None
        assert h_sign_balls(63, 1, PREC) is not None
        assert h_sign_balls(64, 1, PREC) is None
        assert h_sign_balls(8, "1e7", PREC) is not None
        assert h_sign_balls(0, "1e5", PREC, less=1) is not None
        assert h_sign_balls(8, "1e17", PREC) is not None
        assert h_sign_balls(8, "1e18", PREC) is None
        assert h_sign_balls(0, "1e18", PREC) is not None
        assert h_sign_balls(0, "1e15", PREC, less=1) is not None
        assert h_sign_balls(0, "1e16", PREC, less=1) is None
