"""Special-function engine against closed forms and independent summation."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from cmcheck import (
    DEFAULT_PRECISION,
    NumericFailure,
    WorkingPrecision,
    a_coeff,
    bessel_i,
    exp_recip_derivative,
    hyp1f2,
    kernel_bessel,
    polygamma,
    polygamma_range,
    shifted_factorial,
    to_mpf,
)
from cmcheck.specfun import (
    _MAX_RAISES,
    _series_sums,
    polygamma_fixed,
    refine,
)

PREC = DEFAULT_PRECISION

# frozen from mpmath's Hurwitz-zeta / Bessel / hypergeometric routes at 80 dps
PSI1_ONE_THIRD = "10.095597125427094081792004099892516360518904119281"
PSI2_FIVE_HALVES = "-0.23620405164172740300374166856770727811721550017439"
PSI9_TWO = "360.9114223826268071435255657477648911443676141176"
BESSEL_I3_2P5 = "0.47437040877803558955482401786933145126791733118761"
HYP1F2_2_3_1P7 = "1.3270854321926317305435201929450351275290628425544"


def assert_close(value, reference, rel="1e-45"):
    with mp.workdps(80):
        want = mp.mpf(reference)
        assert abs(value - want) <= mp.mpf(rel) * abs(want), (
            mp.nstr(value, 30),
            mp.nstr(want, 30),
        )


class TestWorkingPrecision:
    def test_digit_floor(self):
        with pytest.raises(ValueError):
            WorkingPrecision(29)
        WorkingPrecision(30)

    def test_derived_fields(self):
        prec = WorkingPrecision(50)
        assert prec.working_dps == 65
        with mp.workdps(70):
            assert prec.series_stop == mp.mpf(10) ** -55
        assert not hasattr(prec, "noise_floor")

    def test_context_restores_dps(self):
        before = mp.dps
        with PREC.workdps():
            assert mp.dps == PREC.working_dps
        assert mp.dps == before

    def test_to_mpf_exact_inputs(self):
        with PREC.workdps():
            assert to_mpf(3) == 3
            assert to_mpf("0.5") == mp.mpf(1) / 2
            assert to_mpf(Fraction(1, 4)) == mp.mpf(1) / 4
            assert to_mpf(0.25) == mp.mpf(1) / 4
        with pytest.raises(ValueError):
            to_mpf("not a number")
        with pytest.raises(ValueError):
            to_mpf(1j)

    @pytest.mark.parametrize("value", ("inf", "-inf", "nan", float("inf"), mp.nan))
    def test_to_mpf_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="not a finite real number"):
            to_mpf(value)


class TestDyadic:
    @pytest.mark.parametrize(
        "x", ("-0.75", "0.75", "-3", "1e-30", "-1e-30", "-12345678901234567890", "0")
    )
    def test_exact_and_signed(self, x):
        from cmcheck.specfun import _dyadic

        with mp.workdps(60):
            value = mp.mpf(x)
        m, e = _dyadic(value)
        assert e >= 0
        assert mp.ldexp(m, -e) == value  # ldexp is exact
        assert (m < 0) == (value < 0)

    def test_negative_mantissa(self):
        from cmcheck.specfun import _dyadic

        assert _dyadic(mp.mpf(-0.75)) == (-3, 2)
        assert _dyadic(-5) == (-5, 0)

    @pytest.mark.parametrize("x", (mp.inf, -mp.inf, mp.nan))
    def test_non_finite_is_rejected(self, x):
        from cmcheck.specfun import _dyadic

        with pytest.raises(ValueError):
            _dyadic(x)


class TestPolygamma:
    def test_trigamma_closed_forms(self):
        with mp.workdps(70):
            assert_close(polygamma(1, 1, PREC), mp.pi ** 2 / 6, rel="1e-48")
            assert_close(polygamma(1, "0.5", PREC), mp.pi ** 2 / 2, rel="1e-48")
            assert_close(polygamma(2, 1, PREC), -2 * mp.zeta(3), rel="1e-48")

    def test_frozen_values(self):
        assert_close(polygamma(1, Fraction(1, 3), PREC), PSI1_ONE_THIRD)
        assert_close(polygamma(2, "2.5", PREC), PSI2_FIVE_HALVES)
        assert_close(polygamma(9, 2, PREC), PSI9_TWO)

    def test_summation_bracket_oracle(self):
        for n, t in ((1, 1), (2, "0.5"), (3, "7.25")):
            lo, hi = oracles.polygamma_sum_bracket(n, t, terms=20000)
            value = polygamma(n, t, PREC)
            assert lo <= value <= hi

    def test_quadrature_oracle(self):
        for n, t in ((1, "1.5"), (2, 3)):
            ref = oracles.polygamma_quad(n, t)
            assert_close(polygamma(n, t, PREC), ref, rel="1e-40")

    def test_reflection_identity(self):
        # psi'(x) + psi'(1-x) = pi^2 / sin^2(pi x); at x = 1/4 this is 2 pi^2
        with mp.workdps(70):
            total = polygamma(1, "0.25", PREC) + polygamma(1, "0.75", PREC)
            assert_close(total, 2 * mp.pi ** 2, rel="1e-48")

    def test_recurrence_residual(self):
        with PREC.workdps():
            for n in (1, 2, 3):
                for t in (mp.mpf("0.1"), mp.mpf(1), mp.mpf(25), mp.mpf(100)):
                    scale = mp.factorial(n) / t ** (n + 1)
                    residual = (
                        polygamma(n, t + 1, PREC)
                        - polygamma(n, t, PREC)
                        - (-1) ** n * scale
                    )
                    assert abs(residual) < mp.mpf("1e-40") * scale

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            polygamma(0, 1, PREC)
        with pytest.raises(ValueError):
            polygamma(1, 0, PREC)
        with pytest.raises(ValueError):
            polygamma(1, -2, PREC)

    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(min_value=1, max_value=5),
        t=st.floats(min_value=0.1, max_value=50),
    )
    def test_recurrence_property(self, n, t):
        with PREC.workdps():
            tt = to_mpf(t)
            scale = mp.factorial(n) / tt ** (n + 1)
            residual = (
                polygamma(n, tt + 1, PREC)
                - polygamma(n, tt, PREC)
                - (-1) ** n * scale
            )
            assert abs(residual) < mp.mpf("1e-40") * scale


RANGE_TS = ("1e-3", "0.0502", "0.3", "1", "7", "55", "99.5", "150", "1e3", "1e6")


class NoStop(WorkingPrecision):
    # a zero stop threshold keeps every Euler-Maclaurin tail running until it
    # diverges or exhausts its budget
    @property
    def series_stop(self):
        return mp.mpf(0)


class TestPolygammaRange:
    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_every_order_against_mpmath(self, digits):
        prec = WorkingPrecision(digits)
        with prec.workdps():
            stop = prec.series_stop
            ts = [mp.mpf(t) for t in RANGE_TS]
        for t in ts:
            values = polygamma_range(1, 9, t, prec)
            assert len(values) == 9
            with mp.workdps(prec.working_dps + 40):
                for n, value in zip(range(1, 10), values):
                    want = mp.psi(n, t)
                    assert abs(value - want) <= stop * abs(want), (n, t)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_range_matches_one_order_calls(self, digits):
        prec = WorkingPrecision(digits)
        with prec.workdps():
            stop = prec.series_stop
            ts = [mp.mpf(t) for t in RANGE_TS]
            for t in ts:
                values = polygamma_range(2, 7, t, prec)
                for n, value in zip(range(2, 8), values):
                    one = polygamma(n, t, prec)
                    assert abs(value - one) <= stop * abs(one), (n, t)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_orders_on_both_sides_of_the_shift_target(self, digits):
        # the head ends at max(2 (n_hi + 1), working_dps // 2 + 1): 84 for 41
        # orders at these digits, and the digits' own target for 9
        prec = WorkingPrecision(digits)
        target = prec.working_dps // 2 + 1
        cases = [(41, t) for t in ("0.01", "83.5", 84, "84.5")]
        cases += [(9, t) for t in (target - mp.mpf("0.5"), target, target + mp.mpf("0.5"))]
        with prec.workdps():
            stop = prec.series_stop
        for n_hi, t in cases:
            values = polygamma_range(1, n_hi, t, prec)
            with mp.workdps(prec.working_dps + 40):
                t = mp.mpf(t)
                for n, value in enumerate(values, 1):
                    want = mp.psi(n, t)
                    assert abs(value - want) <= stop * abs(want), (n, t)

    def test_failure_carries_the_polygamma_operation(self):
        for lo, hi, t in ((1, 1, 1), (1, 9, "0.3")):
            with pytest.raises(NumericFailure) as excinfo:
                polygamma_range(lo, hi, t, NoStop(30))
            assert excinfo.value.operation == "polygamma"
            assert lo <= excinfo.value.inputs["n"] <= hi
            # the integer core raises it, with the same detail and inputs
            with pytest.raises(NumericFailure) as core:
                polygamma_fixed(lo, hi, t, NoStop(30))
            assert (core.value.operation, core.value.detail, core.value.inputs) == (
                excinfo.value.operation,
                excinfo.value.detail,
                excinfo.value.inputs,
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            polygamma_range(0, 3, 1, PREC)
        with pytest.raises(ValueError):
            polygamma_range(3, 2, 1, PREC)
        with pytest.raises(ValueError):
            polygamma_range(1, 2, 0, PREC)


class TestShiftedFactorial:
    def test_exact_integers(self):
        assert shifted_factorial(3, 4) == 360
        assert shifted_factorial(1, 5) == 120
        assert shifted_factorial(7, 0) == 1

    def test_exact_fractions(self):
        assert shifted_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
        assert shifted_factorial(Fraction(-3, 2), 2) == Fraction(3, 4)

    def test_float_route(self):
        with PREC.workdps():
            value = shifted_factorial("2.5", 3, PREC)
            assert_close(value, mp.mpf("39.375"), rel="1e-48")

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            shifted_factorial(2, -1)


class TestLaurentCoefficients:
    def test_first_rows(self):
        # rows a_{i,.} of (e^(1/t))^(i) = (-1)^i e^(1/t) t^(-2i) sum_k a_{i,k} t^k
        assert [a_coeff(1, k) for k in range(1)] == [1]
        assert [a_coeff(2, k) for k in range(2)] == [1, 2]
        assert [a_coeff(3, k) for k in range(3)] == [1, 6, 6]
        assert [a_coeff(4, k) for k in range(4)] == [1, 12, 36, 24]

    def test_structural_endpoints(self):
        from math import factorial

        for i in range(1, 10):
            assert a_coeff(i, 0) == 1
            assert a_coeff(i, i - 1) == factorial(i)

    def test_against_exact_recursion(self):
        # c[2i-k] = (-1)^i a_{i,k} links the two exact representations
        assert oracles.exp_recip_poly(0) == [Fraction(1)]
        for i in range(1, 9):
            poly = oracles.exp_recip_poly(i)
            for k in range(i):
                assert (-1) ** i * a_coeff(i, k) == poly[2 * i - k]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            a_coeff(0, 0)
        with pytest.raises(ValueError):
            a_coeff(2, 2)


class TestExpRecipDerivative:
    def test_closed_forms(self):
        with PREC.workdps():
            t = mp.mpf(2)
            assert_close(exp_recip_derivative(0, 2, PREC), mp.exp(1 / t), rel="1e-48")
            assert_close(
                exp_recip_derivative(1, 2, PREC), -mp.exp(1 / t) / t ** 2, rel="1e-48"
            )
            # i = 3 polynomial is 1 + 6t + 6t^2 -> 37 at t = 2, sign (-1)^3
            assert_close(
                exp_recip_derivative(3, 2, PREC),
                -mp.exp(1 / t) * 37 / 64,
                rel="1e-48",
            )

    def test_central_difference(self):
        # the stencil's O(h^2) truncation sits near 1e-20, so compare at 1e-15
        for i in (1, 2, 3):
            for t in ("0.8", 2):
                ref = oracles.central_difference(lambda u: mp.exp(1 / u), i, t)
                assert_close(exp_recip_derivative(i, t, PREC), ref, rel="1e-15")

    def test_alternating_sign(self):
        with PREC.workdps():
            for i in range(9):
                value = exp_recip_derivative(i, "0.7", PREC)
                assert (-1) ** i * value > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_recip_derivative(-1, 1, PREC)
        with pytest.raises(ValueError):
            exp_recip_derivative(2, 0, PREC)


class TestBesselI:
    def test_frozen_value(self):
        assert_close(bessel_i(3, "2.5", PREC), BESSEL_I3_2P5)

    def test_small_argument(self):
        # I_nu(z) ~ (z/2)^nu / nu! as z -> 0
        with PREC.workdps():
            z = mp.mpf("1e-8")
            lead = (z / 2) ** 2 / 2
            assert abs(bessel_i(2, z, PREC) / lead - 1) < mp.mpf("1e-15")

    def test_partial_sum_oracle(self):
        for nu, z in ((0, 1), (1, "0.3"), (4, 10), (2, 30)):
            ref = oracles.bessel_partial(nu, z, terms=120, dps=80)
            assert_close(bessel_i(nu, z, PREC), ref, rel="1e-40")

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1, PREC)
        with pytest.raises(ValueError):
            bessel_i(1, -2, PREC)
        assert bessel_i(0, 0, PREC) == 1
        assert bessel_i(1, 0, PREC) == 0

    @settings(deadline=None, max_examples=25)
    @given(
        nu=st.integers(min_value=1, max_value=8),
        z=st.floats(min_value=0.01, max_value=30),
    )
    def test_recurrence_property(self, nu, z):
        # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)
        with PREC.workdps():
            zz = to_mpf(z)
            lhs = bessel_i(nu - 1, zz, PREC) - bessel_i(nu + 1, zz, PREC)
            rhs = 2 * nu / zz * bessel_i(nu, zz, PREC)
            assert abs(lhs - rhs) <= mp.mpf("1e-40") * abs(rhs)


class TestHyp1F2:
    def test_frozen_value(self):
        assert_close(hyp1f2(2, 3, "1.7", PREC), HYP1F2_2_3_1P7)

    def test_partial_sum_oracle(self):
        for b1, b2, t in ((1, 2, 1), (3, 5, "0.25"), (2, 3, 40)):
            ref = oracles.hyp1f2_partial(b1, b2, t, terms=150, dps=80)
            assert_close(hyp1f2(b1, b2, t, PREC), ref, rel="1e-40")

    def test_unit_value_at_zero_argument(self):
        with PREC.workdps():
            assert abs(hyp1f2(4, 7, "1e-60", PREC) - 1) < mp.mpf("1e-55")

    def test_domain(self):
        with pytest.raises(ValueError):
            hyp1f2(0, 2, 1, PREC)
        with pytest.raises(ValueError):
            hyp1f2(2, -3, 1, PREC)


# seeded x in (0, 40], then x = 225 (I_nu at z = 30), one x whose terms grow
# past 2^(2 wp) so the sum is rescaled, and a tiny x
def series_arguments(digits):
    rng = random.Random(digits)
    return [rng.uniform(0, 40) for _ in range(6)] + [225, 200000, "1e-60"]


@pytest.mark.parametrize("digits", (30, 50, 100))
class TestSeriesAgainstMpmath:
    # the 1F2 summation against mpmath's besseli and hyp1f2 at 3x the digits

    def check(self, digits, engine, reference, argument=to_mpf):
        prec = WorkingPrecision(digits)
        for x in series_arguments(digits):
            with prec.workdps():
                x = argument(to_mpf(x))
            value = engine(x, prec)
            with mp.workdps(3 * digits):
                want = reference(x)
                tol = mp.mpf(10) ** (3 - digits)
                assert abs(value - want) <= tol * want, (x, value)

    @pytest.mark.parametrize("nu", (0, 1, 4))
    def test_bessel_i(self, digits, nu):
        # z = 2 sqrt x at the working precision, so the series argument is z^2/4
        self.check(
            digits,
            lambda z, prec: bessel_i(nu, z, prec),
            lambda z: mp.besseli(nu, z),
            lambda x: 2 * mp.sqrt(x),
        )

    @pytest.mark.parametrize("b1, b2", ((1, 2), (4, 7), ("2.5", Fraction(7, 3))))
    def test_hyp1f2(self, digits, b1, b2):
        def exact(b):
            if isinstance(b, Fraction):
                return mp.mpf(b.numerator) / b.denominator
            return mp.mpf(b)

        self.check(
            digits,
            lambda x, prec: hyp1f2(b1, b2, x, prec),
            lambda x: mp.hyp1f2(1, exact(b1), exact(b2), x),
        )

    @pytest.mark.parametrize("k", (0, 3))
    def test_kernel_bessel(self, digits, k):
        self.check(
            digits,
            lambda x, prec: kernel_bessel(k, x, prec),
            lambda x: mp.besseli(k + 2, 2 * mp.sqrt(x)) / x ** (mp.mpf(k + 2) / 2),
        )

    @pytest.mark.parametrize("b", ("1e-300", "1e-3000"))
    def test_hyp1f2_tiny_parameters(self, digits, b):
        # x/(b1 b2) far above 2^wp: the first terms outgrow one wp-bit rescale;
        # reference 1 + x/(b1 b2) 1F2(1; b1+1, b2+1; x)
        prec = WorkingPrecision(digits)
        value = hyp1f2(b, b, "1e5", prec)
        with mp.workdps(3 * digits):
            x, c = mp.mpf("1e5"), mp.mpf(b)
            want = 1 + x / (c * c) * mp.hyp1f2(1, c + 1, c + 1, x)
            assert abs(value - want) <= mp.mpf(10) ** (3 - digits) * want


class TestNumericFailure:
    def test_carries_operation_and_inputs(self):
        err = NumericFailure("some_op", "went sideways", alpha=3, t="0.5")
        text = str(err)
        assert "some_op" in text
        assert "went sideways" in text
        assert "alpha=3" in text
        assert isinstance(err, ArithmeticError)

    @pytest.mark.parametrize(
        "engine, args, operation, inputs",
        (
            (bessel_i, (2, "0.5"), "bessel_i", {"nu": 2, "z": 0.5}),
            (hyp1f2, (2, "2.5", "0.5"), "hyp1f2", {"b1": 2, "b2": 2.5, "t": 0.5}),
            (kernel_bessel, (1, "0.5"), "kernel_bessel", {"k": 1, "t": 0.5}),
        ),
    )
    def test_exhausted_series_budget(self, engine, args, operation, inputs):
        # a zero stop threshold runs the shared 1F2 summation through its budget
        with pytest.raises(NumericFailure) as excinfo:
            engine(*args, NoStop(30))
        assert excinfo.value.operation == operation
        assert excinfo.value.detail == "series budget exhausted"
        assert excinfo.value.inputs == inputs

    @pytest.mark.parametrize(
        "engine, args",
        (
            (hyp1f2, (1, 2, "1e200")),
            (hyp1f2, (1, 2, "1e100000")),
            # 2t = (1 + L)(2 + L), L = 200000: the ratio test first passes past L
            (hyp1f2, (1, 2, (1 + 200000) * (2 + 200000) // 2)),
            (bessel_i, (0, "1e1000")),
            (kernel_bessel, (0, "1e200")),
        ),
    )
    def test_growing_terms_fail_at_once(self, engine, args):
        # terms that outgrow every rescale would take minutes and gigabytes
        # to reach the budget; the ratio test cannot pass, so it fails up front
        start = time.process_time()
        with pytest.raises(NumericFailure) as excinfo:
            engine(*args, PREC)
        assert excinfo.value.detail == "series budget exhausted"
        assert time.process_time() - start < 1


def batch_arguments(digits):
    # seeded x, then 1e-60 beside 1e3 (one binary exponent for both), and
    # x near 2e5, whose terms grow past 2^(2 wp) and are rescaled
    rng = random.Random(1000 + digits)
    return [rng.uniform(0, 40) for _ in range(5)] + ["1e-60", 1000, "2e5", 0, "0.75"]


class TestRefine:
    """refine, the one rule by which a value too wide for its digits is
    taken again at more digits, on scripted balls."""

    @staticmethod
    def run(widths, digits=30):
        """refine over balls of mid 10^9000 and radius 10^(9000 + w), w the
        next of widths at each pass (None: a ball that holds 0); returns the
        digits of every pass."""
        levels = []
        widths = iter(widths)

        def evaluate(level):
            levels.append(level.digits)
            width = next(widths)
            mid = 10**9000 if width is not None else 0
            return "value", [(mid, 10 ** (9000 + (width or 0)))]

        assert refine(evaluate, WorkingPrecision(digits), "op", x=1) == "value"
        return levels

    def test_a_radius_at_the_threshold_takes_one_pass(self):
        assert self.run([-33]) == [30]
        assert self.run([-53], digits=50) == [50]

    def test_a_wider_radius_raises_by_the_digits_lost(self):
        # 10^-32 of the value at 30 digits: -32 + 30 + 5 more digits
        assert self.run([-32, -40]) == [30, 33]
        assert self.run([-20, -33]) == [30, 45]

    def test_a_ball_that_holds_0_doubles_the_digits(self):
        # its digits lost, the 45 working digits at 30, and 35 more would
        # add 80; a raise adds at most the level's digits
        assert self.run([None, -40]) == [30, 60]
        assert self.run([0, None, None, -40]) == [30, 60, 120, 240]

    def test_refuses_after_the_last_raise(self):
        with pytest.raises(NumericFailure) as failure:
            self.run([-32] * (_MAX_RAISES + 1))
        assert failure.value.operation == "op"
        assert failure.value.inputs == {"x": 1}
        assert failure.value.detail.startswith("error radius")
        assert f"after {_MAX_RAISES} raises" in failure.value.detail

    def test_a_raise_adds_at_most_the_level_digits(self):
        # a ball 10^w of its value at d digits calls for d + 5 + w more
        assert self.run([-6, -40]) == [30, 59]
        assert self.run([-4, -40]) == [30, 60]
        assert self.run([-4, -3, -40]) == [30, 60, 92]

    def test_high_digits_raise_past_a_thousand(self):
        # 5000 digits that fall 3588 short take one raise of 3590 digits,
        # and a ball that holds 0 there one of 5000
        assert self.run([-1415, -5003], 5000) == [5000, 8590]
        assert self.run([None, -5003], 5000) == [5000, 10000]


class TestSeriesBatches:
    # one pass over many arguments gives each argument's one-at-a-time bits

    def test_sums_are_those_of_single_arguments(self):
        # the integer pass itself, argument by argument, mixed exponents included
        with PREC.workdps():
            xs = [to_mpf(x) for x in batch_arguments(50)]
            half = mp.mpf("0.5")
            assert _series_sums(xs, 3, half, PREC) == [
                _series_sums([x], 3, half, PREC)[0] for x in xs
            ]
            assert _series_sums([], 1, 2, PREC) == []
