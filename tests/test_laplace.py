"""Kernels, semi-infinite quadrature with a bound on its error, and the four
integral representations against composite-Bessel, partial-sum, and exact
oracles.  Single Gauss-Legendre panels are checked against mp.quad at 3x the
digits: their error must stay within the Bernstein-ellipse bound."""

import random
from functools import partial
from math import comb, factorial

import pytest
from mpmath import mp

import oracles
from cmcheck import (
    DEFAULT_PRECISION,
    KernelSpec,
    NumericFailure,
    WorkingPrecision,
    h_kernel,
    hyp1f2,
    kernel_1f2,
    kernel_bessel,
    laplace_transform,
    remainder_hk,
    to_mpf,
    u_ratio,
    verify_representation,
)
from cmcheck.laplace import (
    _BOUND_PRECISION,
    _ellipse_majorant,
    _gauss_bound,
    _gauss_panel,
    _node_precision,
    _tail_bound,
)

PREC = DEFAULT_PRECISION


class NoStop(WorkingPrecision):
    @property
    def series_stop(self):
        return mp.mpf(0)

# frozen from mpmath's hypergeometric / Bessel composites at 80 dps
KERNEL_1F2_K2_T5 = "3.2092902907288698008916733967050224365086952091684"
KERNEL_BESSEL_K1_T3 = "0.33613944668821061327873172097732736176460452623009"
H_KERNEL_0P1 = "0.0000071181385118443075843664942198367042045994899711227"
U_RATIO_0P3 = "1.1574887740530247806917209735080544672100635073359"


def assert_close(value, reference, rel="1e-45"):
    with mp.workdps(80):
        want = mp.mpf(reference)
        assert abs(value - want) <= mp.mpf(rel) * abs(want), (
            mp.nstr(value, 30),
            mp.nstr(want, 30),
        )


class TestKernels:
    def test_frozen_values(self):
        assert_close(kernel_1f2(2, 5, PREC), KERNEL_1F2_K2_T5)
        assert_close(kernel_bessel(1, 3, PREC), KERNEL_BESSEL_K1_T3)

    def test_partial_sum_oracles(self):
        for k in range(6):
            for t in ("0.1", 1, 10, 100):
                ref = oracles.kernel_1f2_partial(k, t, terms=200, dps=80)
                assert_close(kernel_1f2(k, t, PREC), ref, rel="1e-40")
                ref = oracles.kernel_bessel_partial(k, t, terms=200, dps=80)
                assert_close(kernel_bessel(k, t, PREC), ref, rel="1e-40")

    def test_bessel_composite_route(self):
        # kernel_bessel and bessel_i share one summation, so the composite
        # comes from mpmath's besseli
        with PREC.workdps():
            for k in range(4):
                for t in ("0.5", 4, 50):
                    tt = mp.mpf(t)
                    direct = kernel_bessel(k, t, PREC)
                    composite = mp.besseli(k + 2, 2 * mp.sqrt(tt)) / tt ** (
                        mp.mpf(k + 2) / 2
                    )
                    assert abs(direct - composite) <= mp.mpf("1e-40") * composite

    def test_cross_identity_at_k0(self):
        # kernel_1f2(0, t) = I_1(2 sqrt t) / sqrt t, with I_1 from mpmath
        with PREC.workdps():
            for t in ("0.1", 1, 10, 100):
                tt = mp.mpf(t)
                lhs = kernel_1f2(0, t, PREC)
                rhs = mp.besseli(1, 2 * mp.sqrt(tt)) / mp.sqrt(tt)
                assert abs(lhs - rhs) <= mp.mpf("1e-40") * rhs

    def test_hyp_closed_form_route(self):
        # kernel_1f2(k,t) = t^k/(k!(k+1)!) 1F2(1; k+1, k+2; t)
        with PREC.workdps():
            k, t = 3, mp.mpf("7.5")
            closed = (
                t ** k
                / (mp.factorial(k) * mp.factorial(k + 1))
                * hyp1f2(k + 1, k + 2, t, PREC)
            )
            assert abs(kernel_1f2(k, "7.5", PREC) - closed) <= mp.mpf("1e-45") * closed

    def test_positivity_and_growth_domination(self):
        # every kernel is positive and bounded by e^(2 sqrt t)
        with PREC.workdps():
            for t in ("0.01", 1, 25, 100):
                tt = mp.mpf(t)
                cap = mp.exp(2 * mp.sqrt(tt))
                for k in range(4):
                    v1 = kernel_1f2(k, t, PREC)
                    v2 = kernel_bessel(k, t, PREC)
                    assert 0 < v1 < cap
                    assert 0 < v2 < cap
                vh = h_kernel(t, PREC)
                assert 0 < vh < cap

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_1f2(-1, 1, PREC)
        with pytest.raises(ValueError):
            kernel_bessel(0, -1, PREC)


class TestURatioAndHKernel:
    def test_frozen_values(self):
        assert_close(u_ratio("0.3", PREC), U_RATIO_0P3)
        assert_close(h_kernel("0.1", PREC), H_KERNEL_0P1)

    def test_u_ratio_defining_identity(self):
        # u_ratio(u) (1 - e^-u) = u on both sides of the series/direct seam
        with PREC.workdps():
            for u in ("0.01", "0.2", "0.2499", "0.2501", "0.3", 5, 40):
                uu = mp.mpf(u)
                product = u_ratio(u, PREC) * (-mp.expm1(-uu))
                assert abs(product - uu) <= mp.mpf("1e-45") * uu

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_u_ratio_against_mpmath(self, digits):
        # both sides of the seam at u = 1/4, against u/(1 - e^-u) at 3x the digits
        prec = WorkingPrecision(digits)
        rng = random.Random(digits)
        with prec.workdps():
            us = [mp.mpf(rng.uniform(0, 0.25)) / rng.choice((1, 3)) for _ in range(6)]
            quarter = mp.mpf(1) / 4
            us += [mp.mpf("1e-9"), quarter - mp.mpf(2) ** -40, quarter, mp.mpf("0.3"), 7]
        for u in us:
            value = u_ratio(u, prec)
            with mp.workdps(3 * digits):
                want = u / (-mp.expm1(-u))
                assert abs(value - want) <= mp.mpf(10) ** (3 - digits) * want, u

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_u_ratio_at_huge_u_is_u(self, digits):
        # from u = (P + 2) ln 2 on, -expm1(-u) rounds to 1 at P bits: the
        # ratio is u to the bit, on both sides of that threshold, and u =
        # 1e400000, where e^-u would take minutes, returns at once
        prec = WorkingPrecision(digits)
        with prec.workdps():
            edge = (prec.bits + 2) * mp.ln2
            us = [edge * (1 + mp.mpf(d)) for d in ("-1e-3", "-1e-9", 0, "1e-9", "1e-3")]
            # at P ln 2 and below, -expm1(-u) is not 1
            us += [edge - 2 * mp.ln2, edge - 3 * mp.ln2, mp.ceil(edge) + 1, 4 * edge]
            us.append(mp.mpf("1e5"))
        for u in us:
            value = u_ratio(u, prec)
            with prec.workdps():
                assert value == u / (-mp.expm1(-u)), u
                if u >= edge:
                    assert value == u, u
        with prec.workdps():
            assert u_ratio("1e400000", prec) == mp.mpf("1e400000")

    def test_u_ratio_limit(self):
        with PREC.workdps():
            # u/(1-e^-u) = 1 + u/2 + O(u^2)
            value = u_ratio("1e-30", PREC)
            assert abs(value - 1 - mp.mpf("0.5e-30")) < mp.mpf("1e-40")

    def test_h_kernel_seam_routes_agree(self):
        # the small-u route (the 1F2 head less u^4 times the Bernoulli tail)
        # and the route from u = 1/4 on, kernel_1f2(0, u) - u_ratio(u), must
        # coincide on both sides of the seam
        from cmcheck.laplace import _bernoulli_tail
        from cmcheck.specfun import _series_1f2

        with PREC.workdps():
            quarter = mp.mpf(1) / 4
            for u in (mp.mpf("0.2"), quarter - mp.mpf(2) ** -40, quarter, mp.mpf("0.3")):
                head = u**3 / 144 * _series_1f2(u, 4, 5, PREC, "h_kernel", u=u)
                small = head - u**4 * _bernoulli_tail(u, PREC)
                direct = kernel_1f2(0, u, PREC) - u_ratio(u, PREC)
                assert abs(small - direct) <= mp.mpf("1e-45") * direct, u

    def test_h_kernel_composite_route(self):
        # direct form I_1(2 sqrt u)/sqrt u - u/(1 - e^-u) above the seam,
        # both pieces from mpmath, which shares no code with h_kernel
        with PREC.workdps():
            for u in ("0.5", 2, 10):
                uu = mp.mpf(u)
                composite = mp.besseli(1, 2 * mp.sqrt(uu)) / mp.sqrt(uu) - uu / (
                    -mp.expm1(-uu)
                )
                assert_close(h_kernel(u, PREC), composite, rel="1e-35")

    @pytest.mark.parametrize("digits", (30, 50, 100, 1000))
    def test_h_kernel_series_against_mpmath(self, digits):
        # below the seam, against the direct form from mpmath at 3x the digits,
        # where its cancellation of ~ log10(144 / u^3) digits is harmless; near
        # u = 1/4 at 1000 digits the Bernoulli tail needs ~ (digits + 5)/2.8 terms
        prec = WorkingPrecision(digits)
        rng = random.Random(digits)
        with prec.workdps():
            # short (float) and full-length mantissas
            us = [mp.mpf(rng.uniform(0, 0.25)) / rng.choice((1, 3)) for _ in range(8)]
            us += [mp.mpf(u) for u in ("1e-9", "0.2499")]
            us.append(mp.mpf(1) / 4 - mp.mpf(2) ** -40)
        for u in us:
            value = h_kernel(u, prec)
            with mp.workdps(3 * digits):
                root = mp.sqrt(u)
                want = mp.besseli(1, 2 * root) / root - u / (-mp.expm1(-u))
                assert abs(value - want) <= mp.mpf(10) ** (3 - digits) * want, u

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_bernoulli_tail_against_mpmath(self, digits):
        # sum_{v>=2} B_2v/(2v)! u^(2v-4) from mpmath's Bernoulli numbers at 3x
        # the digits; the tail stops at series_stop of the sum, and the
        # first omitted term is 600 times smaller still
        from cmcheck.laplace import _bernoulli_tail

        prec = WorkingPrecision(digits)
        with prec.workdps():
            us = [mp.mpf(u) for u in ("1e-30", "2.5e-5", "0.01", "0.2")]
            us.append(mp.mpf(1) / 4 - mp.mpf(2) ** -40)
            values = [_bernoulli_tail(u, prec) for u in us]
        for u, value in zip(us, values):
            with mp.workdps(3 * digits):
                want, v = mp.mpf(0), 2
                while True:
                    term = mp.bernoulli(2 * v) / mp.factorial(2 * v) * u ** (2 * v - 4)
                    want += term
                    if abs(term) < mp.mpf(10) ** (-3 * digits) * abs(want):
                        break
                    v += 1
                assert abs(value - want) <= mp.mpf(10) ** -(digits + 5) * abs(want), u

    def test_h_kernel_series_budget(self):
        # a zero stop threshold can never end the small-u series
        with pytest.raises(NumericFailure) as excinfo:
            h_kernel("0.1", NoStop(30))
        assert excinfo.value.operation == "h_kernel"
        assert excinfo.value.detail == "series budget exhausted"
        assert list(excinfo.value.inputs) == ["u"]

    def test_h_kernel_small_u_leading_term(self):
        # h_kernel(u) = u^3/144 (1 + O(u)); at u = 1e-4 the ratio is 1 to ~1e-4
        with PREC.workdps():
            u = mp.mpf("1e-4")
            lead = u ** 3 / 144
            assert abs(h_kernel(u, PREC) / lead - 1) < mp.mpf("1e-3")

    def test_h_kernel_positive(self):
        with PREC.workdps():
            for u in ("1e-3", "0.1", "0.25", 1, 10, 50):
                assert h_kernel(u, PREC) > 0


class TestKernelSpec:
    def test_evaluate_matches_bases(self):
        with PREC.workdps():
            t = mp.mpf("1.7")
            assert KernelSpec("f12", k=2).evaluate(t, PREC) == kernel_1f2(2, t, PREC)
            assert KernelSpec("bessel", k=1).evaluate(t, PREC) == kernel_bessel(
                1, t, PREC
            )
            assert KernelSpec("h").evaluate(t, PREC) == h_kernel(t, PREC)
            assert KernelSpec("const").evaluate(t, PREC) == 1
            weighted = KernelSpec("h", weight=2).evaluate(t, PREC)
            assert abs(weighted - t ** 2 * h_kernel(t, PREC)) <= mp.mpf("1e-50")

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("unknown")
        with pytest.raises(ValueError):
            KernelSpec("f12", k=-1)
        with pytest.raises(ValueError):
            KernelSpec("f12", weight=-2)


def kernel_arguments(digits):
    # seeded t on both sides of u = 1/4, the seam itself, 1e-60 beside 1e3,
    # a t near 2e5 whose terms are rescaled, and 0
    rng = random.Random(2000 + digits)
    ts = [rng.uniform(0, 0.25) for _ in range(3)]
    ts += [rng.uniform(0.25, 40) for _ in range(3)]
    return ts + ["0.25", "1e-60", 1000, "2e5", 0]


def raw(ts, prec):
    """ts converted at prec's working precision, as raw mpfs."""
    with prec.workdps():
        return [to_mpf(t)._mpf_ for t in ts]


class TestKernelBatches:
    # KernelSpec._values, which the quadrature calls over a panel's nodes,
    # gives each argument's one-at-a-time bits

    @pytest.mark.parametrize("digits", (30, 50, 100))
    @pytest.mark.parametrize(
        "kind, k",
        (
            ("f12", 0), ("f12", 1), ("f12", 2), ("bessel", 0), ("bessel", 1),
            ("bessel", 2), ("h", 0), ("const", 0),
        ),
    )
    def test_kernel_spec_batch_is_bit_identical(self, digits, kind, k):
        prec = WorkingPrecision(digits)
        ts = kernel_arguments(digits)
        public = {
            "f12": lambda t: kernel_1f2(k, t, prec),
            "bessel": lambda t: kernel_bessel(k, t, prec),
            "h": lambda u: h_kernel(u, prec),
            "const": lambda t: 1,
        }[kind]
        for weight in range(3):
            spec = KernelSpec(kind, k=k, weight=weight)
            batch = [mp.make_mpf(v) for v in spec._values(raw(ts, prec), prec)]
            assert batch == [spec.evaluate(t, prec) for t in ts]
            if not weight:
                assert batch == [public(t) for t in ts]

    @staticmethod
    def assert_first_failure(spec, ts, first, prec, single):
        """spec's batch over ts raises what single(first, prec) raises alone."""
        with pytest.raises(NumericFailure) as one:
            single(first, prec)
        with pytest.raises(NumericFailure) as batch:
            spec._values(raw(ts, prec), prec)
        assert (batch.value.operation, batch.value.detail, batch.value.inputs) == (
            one.value.operation,
            one.value.detail,
            one.value.inputs,
        )

    @pytest.mark.parametrize(
        "ts", (["0.5", "1e200"], ["1e200", "0.5"], ["1e-60", "0.5"]), ids=str
    )
    def test_f12_batch_raises_the_first_failure(self, ts):
        # under a zero stop threshold each t runs the full budget (0.5) or
        # fails up front (1e200); the failure, inputs included, is the one
        # hyp1f2 raises for the first t
        spec = KernelSpec("f12", 1)
        self.assert_first_failure(spec, ts, ts[0], NoStop(30), partial(hyp1f2, 2, 3))

    def test_bessel_batch_raises_the_first_failure(self):
        # t = 1 runs the budget, t = 1e200 fails up front; with a threshold,
        # only the second fails, and it is the one reported
        for prec, first in ((NoStop(30), "1"), (PREC, "1e200")):
            spec = KernelSpec("bessel", 0)
            single = partial(kernel_bessel, 0)
            self.assert_first_failure(spec, ["1", "1e200"], first, prec, single)

    @pytest.mark.parametrize(
        "us", (["0.5", "0.1"], ["0.1", "0.5"], [0, "0.3"]), ids=str
    )
    def test_h_batch_raises_the_first_failure(self, us):
        # under a zero stop threshold every u > 0 fails: from u = 1/4 on in
        # hyp1f2's budget, below in the Bernoulli tail; the batch raises
        # what the first failing u raises alone
        first = next(u for u in us if u != 0)
        self.assert_first_failure(KernelSpec("h"), us, first, NoStop(30), h_kernel)


class TestLaplaceTransform:
    def test_monomial_calibration(self):
        with PREC.workdps():
            tol = mp.mpf("1e-12")
            for n in range(5):
                for z in (1, 3):
                    quad = laplace_transform(
                        KernelSpec("const", weight=n), z, "1e-13", PREC
                    )
                    exact = oracles.monomial_transform_exact(n, z, dps=80)
                    assert abs(quad.value - exact) <= tol * exact

    def test_exponential_halving(self):
        with PREC.workdps():
            quad = laplace_transform(KernelSpec("const"), 2, "1e-13", PREC)
            assert abs(quad.value - mp.mpf("0.5")) < mp.mpf("1e-13")

    def test_result_certificates(self):
        with PREC.workdps():
            quad = laplace_transform(KernelSpec("f12", k=0), 1, "1e-10", PREC)
            assert quad.error_bound <= mp.mpf("1e-10") * abs(quad.value)
            assert quad.tail_bound <= mp.mpf("1e-10") * abs(quad.value)
            assert quad.truncation_point > 0
            assert 0 < quad.nodes <= 100000

    def test_tail_bound_dominates_true_tail(self):
        # the certified bound must exceed the actual discarded integral
        with PREC.workdps():
            quad = laplace_transform(KernelSpec("f12", k=0), 1, "1e-10", PREC)
            T = quad.truncation_point
        with mp.workdps(60):
            true_tail = mp.quad(
                lambda t: mp.besseli(1, 2 * mp.sqrt(t)) / mp.sqrt(t) * mp.exp(-t),
                [T, T + 60, mp.inf],
            )
            assert 0 < true_tail < quad.tail_bound

    def test_tail_bound_is_an_upper_bound_near_the_gamma_form(self):
        # the exact sum of upper incomplete gammas it replaces, at 60 digits;
        # (4, 2.25, 1) takes the gammainc branch for s > 1 + x
        cases = ((0, 16, 1), (0, 100, "0.5"), (1, 40, 2), (2, "2.25", 1),
                 (4, "2.25", 1), (4, 30, "0.3"), (3, 1000, "0.1"))
        for weight, T, z in cases:
            with mp.workdps(60):
                T, z = mp.mpf(T), mp.mpf(z)
                a = 1 / z
                x = z * (mp.sqrt(T) - a) ** 2
                n = 2 * weight + 1
                exact = 2 * mp.exp(a) * mp.fsum(
                    comb(n, j) * a ** (n - j) * mp.gammainc(mp.mpf(j + 1) / 2, x)
                    / (2 * z ** (mp.mpf(j + 1) / 2))
                    for j in range(n + 1)
                )
                bound = _tail_bound(weight, T, z)
                assert exact <= bound <= mp.mpf("1.25") * exact, (weight, T, z)

    def test_nodes_take_the_digits_the_tolerance_needs(self):
        # max(30, ceil(-log10 rel_tol) + 10), at most the digits asked for,
        # under the caller's policy
        for digits, rel_tol, want in (
            (50, "5e-11", 30), (50, "1e-25", 35), (100, "1e-80", 90), (30, "1e-20", 30),
        ):
            prec = WorkingPrecision(digits)
            with prec.workdps():
                assert _node_precision(prec, mp.mpf(rel_tol)).digits == want
        assert type(_node_precision(NoStop(50), mp.mpf("1e-10"))) is NoStop

    def test_kernel_transform_reproduces_shifted_remainder(self):
        # transform of the Bessel kernel alone is z^(k+1) H_{k+1}(z): the
        # constant 1/(k+1)! lives outside the integral
        with PREC.workdps():
            for k, z in ((0, 1), (1, 2)):
                quad = laplace_transform(KernelSpec("bessel", k=k), z, "1e-10", PREC)
                expected = mp.mpf(z) ** (k + 1) * remainder_hk(k + 1, z, PREC)
                assert abs(quad.value - expected) <= mp.mpf("1e-9") * expected

    def test_rel_tol_validation(self):
        for bad in (0, -1, 1, "2", "1e-60"):
            with pytest.raises(ValueError):
                laplace_transform(KernelSpec("const"), 1, bad, PREC)

    def test_z_validation(self):
        with pytest.raises(ValueError):
            laplace_transform(KernelSpec("const"), 0, "1e-10", PREC)

    def test_determinism(self):
        a = laplace_transform(KernelSpec("h"), 2, "1e-8", PREC)
        b = laplace_transform(KernelSpec("h"), 2, "1e-8", PREC)
        assert a.value == b.value
        assert a.nodes == b.nodes


class TestRepresentations:
    def test_all_four_pass_at_spot_points(self):
        for rep, index, z in (
            ("f12", 0, 1),
            ("bessel", 1, 2),
            ("h", 0, 1),
            ("h_deriv", 1, 2),
            ("h_deriv", 2, 1),
        ):
            check = verify_representation(rep, index, z=z, prec=PREC)
            assert check.passed, (rep, index, z, mp.nstr(check.rel_err, 8))
            assert check.rel_err <= check.tol

    def test_f12_left_side_is_remainder(self):
        check = verify_representation("f12", 2, z="0.5", prec=PREC)
        assert check.lhs == remainder_hk(2, "0.5", PREC)

    def test_h_route_includes_unit_constant(self):
        # h(z) = 1 + transform; the transform alone is h(z) - 1
        with PREC.workdps():
            check = verify_representation("h", z=2, prec=PREC)
            transform = check.quadrature.value
            assert abs(transform - (check.lhs - 1)) <= mp.mpf("1e-7") * abs(transform)

    def test_f12_bessel_consistency(self):
        # the two remainder representations agree with each other within
        # twice the individual tolerance
        with PREC.workdps():
            a = verify_representation("f12", 2, z=1, rel_tol="1e-10", prec=PREC)
            b = verify_representation("bessel", 2, z=1, rel_tol="1e-10", prec=PREC)
            assert abs(a.rhs - b.rhs) <= 2 * mp.mpf("1e-10") * abs(a.rhs)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_representation("nope", 0, z=1, prec=PREC)
        with pytest.raises(ValueError):
            verify_representation("h_deriv", 0, z=1, prec=PREC)
        with pytest.raises(ValueError):
            verify_representation("f12", 0, z=0, prec=PREC)


def _mpmath_kernel(kernel):
    """kernel(t) t^weight from mpmath's own functions, sharing no code with cmcheck."""
    k, w = kernel.k, kernel.weight
    if kernel.kind == "f12":
        front = factorial(k) * factorial(k + 1)
        return lambda t: t ** (k + w) * mp.hyp1f2(1, k + 1, k + 2, t) / front
    if kernel.kind == "bessel":
        return lambda t: mp.besseli(k + 2, 2 * mp.sqrt(t)) * t ** (w - mp.mpf(k + 2) / 2)
    if kernel.kind == "h":
        return lambda t: (
            mp.besseli(1, 2 * mp.sqrt(t)) / mp.sqrt(t) - t / -mp.expm1(-t)
        ) * t**w
    return lambda t: t**w


PANEL_KERNELS = (
    [KernelSpec("f12", k=k) for k in (0, 3)]
    + [KernelSpec("bessel", k=k) for k in (0, 3)]
    + [KernelSpec("h", weight=w) for w in range(3)]
    + [KernelSpec("const", weight=w) for w in range(5)]
)

# at z = 1: the panel at 0, a middle panel and the widest, the third extension of T
PANELS = ((0, "0.5"), (2, 4), (36, 54))

# rho = 2^(j/4) up to 512, finer than the engine's ladder, so the smallest
# bound nearly attains the best the theorem gives
FINE_RHOS = [mp.mpf(2) ** (mp.mpf(j) / 4) for j in range(1, 37)]


class TestPanelBounds:
    @pytest.mark.parametrize("digits", (30, 50, 100))
    @pytest.mark.parametrize(
        "kernel", PANEL_KERNELS, ids=lambda q: f"{q.kind}-k{q.k}-w{q.weight}"
    )
    def test_gauss_error_within_bound(self, kernel, digits):
        # few nodes, where the bound is nearly attained (within 8x for e^-t at
        # two nodes), up to 16, where the error meets the working precision
        prec = WorkingPrecision(digits)
        integrand = _mpmath_kernel(kernel)
        for a, b in PANELS:
            a, b = mp.mpf(a), mp.mpf(b)
            with mp.workdps(3 * digits):
                # mpmath's Gauss-Legendre: on these smooth panels its fastest rule
                want = mp.quad(
                    lambda t: integrand(t) * mp.exp(-t), [a, b], method="gauss-legendre"
                )
            with _BOUND_PRECISION.workdps():
                c, quarter = (a + b) / 2, (b - a) / 4
                semis = [quarter * (rho + 1 / rho) for rho in FINE_RHOS]
            # the helpers take and give raw mpfs; the bound is rounded at the
            # ambient precision, as the mpf arithmetic here is
            one, half = mp.mpf(1)._mpf_, ((b - a) / 2)._mpf_
            majorants = [
                _ellipse_majorant(kernel, one, c._mpf_, semi._mpf_) for semi in semis
            ]
            for order in (2, 4, 8, 16):
                got = mp.make_mpf(_gauss_panel(kernel, one, a._mpf_, b._mpf_, order, prec))
                bound = min(
                    mp.make_mpf(_gauss_bound(half, m, rho._mpf_, order, mp.prec))
                    for m, rho in zip(majorants, FINE_RHOS)
                )
                with mp.workdps(3 * digits):
                    # the kernels are good to 10^-(digits+5) relative, below this
                    rounding = mp.mpf(10) ** -(digits + 3) * want
                    assert abs(got - want) <= bound + rounding, (a, b, order)

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_transform_error_within_bound(self, digits):
        prec = WorkingPrecision(digits)
        with mp.workdps(3 * digits):
            cases = [
                (KernelSpec("const", weight=n), z, mp.factorial(n) / mp.mpf(z) ** (n + 1))
                for n in range(5)
                for z in (1, 3)
            ]
            cases.append((KernelSpec("f12"), 1, mp.e - 1))  # sum_m 1/m!
        for kernel, z, exact in cases:
            quad = laplace_transform(kernel, z, "1e-12", prec)
            with mp.workdps(3 * digits):
                assert quad.error_bound <= mp.mpf("1e-12") * quad.value
                rounding = mp.mpf(10) ** -(digits + 3) * exact
                assert abs(quad.value - exact) <= quad.error_bound + rounding

    def test_cli_mix_points_keep_their_work(self, monkeypatch):
        # the nodes and bound evaluations of the verify-integral calls of the
        # benchmark, at their unjittered z, with the panels at node digits,
        # and the Gauss bounds the rule forms, each (rho, order) once
        import cmcheck.laplace

        gauss_bounds = []

        def counted(*args):
            gauss_bounds.append(args)
            return _gauss_bound(*args)

        monkeypatch.setattr(cmcheck.laplace, "_gauss_bound", counted)
        for rep, index, z, digits, nodes, bounds, formed in (
            ("f12", 1, "2.0", 30, 62, 42, 97),
            ("bessel", 2, "3.5", 50, 58, 40, 90),
            ("h_deriv", 1, "1.0", 100, 82, 44, 125),
        ):
            gauss_bounds.clear()
            check = verify_representation(rep, index, z=z, prec=WorkingPrecision(digits))
            assert check.passed
            assert (check.quadrature.nodes, check.quadrature.bound_evaluations) == (
                nodes,
                bounds,
            )
            assert len(gauss_bounds) == formed

    def test_work_is_at_most_half_of_the_16_32_pair(self):
        # the embedded 16/32-point pair this rule replaced took 432 nodes here
        quad = verify_representation("f12", 0, z=1, prec=PREC).quadrature
        assert quad.nodes + quad.bound_evaluations <= 432 // 2
