"""The integer cores of the scans and the quadrature enter no precision
context per point, panel, node or edge: each takes its bits and its series
stop from the policy it is given, never from the ambient mp.prec, and its
integers and raw mpfs are those of the context-based code it replaced."""

import hashlib
from fractions import Fraction

import pytest
from mpmath import ctx_mp, mp

from cmcheck import NumericFailure, WorkingPrecision, exp_recip_derivative
from cmcheck.cmdeg import HOracle, LogGrid, ScaledTailOracle, check_sign_pattern
from cmcheck.inequalities import check_ineq_trigamma
from cmcheck.laplace import (
    KernelSpec,
    _h_pieces,
    kernel_1f2,
    laplace_transform,
    u_ratio,
)
from cmcheck.laurent import h_balls, hk_sums
from cmcheck.specfun import polygamma_fixed

CORE_DIGITS = (30, 50, 100, 200)
CORE_TS = ("1e-5", "0.0101", "0.7", "1", "2.5", "33.3", "1000", "12345.678")


def _points(prec):
    """CORE_TS at prec, and two points just below 2 with more bits than 30
    digits' working precision, 153: there the polygamma shift is the
    ceiling of target - t = 21 + d rounded to nearest at 153 bits, as
    mpmath's ceil of the difference took it, 21 for d = 2^-200 (rounded
    down) and 22 for d = 3 2^-150, three quarters of a unit of 21's last
    bit (rounded up)."""
    with prec.workdps():
        ts = [mp.mpf(t) for t in CORE_TS]
    with mp.workprec(300):
        return ts + [mp.mpf(2) - mp.ldexp(1, -200), mp.mpf(2) - mp.ldexp(3, -150)]


def core_results(digits):
    """{core: its integers (or raw mpfs) over _points} at digits."""
    prec = WorkingPrecision(digits)
    ts = _points(prec)
    out = {
        "polygamma_fixed": [polygamma_fixed(1, 9, t, prec) for t in ts],
        "exp_recip_derivative": [
            exp_recip_derivative(i, t, prec)._mpf_ for t in ts for i in (0, 1, 5)
        ],
        "h_balls": [h_balls(0, 8, t, prec) for t in ts],
        "hk_sums": [tuple(hk_sums(k, t, 6, prec)) for k in (0, 2) for t in ts],
    }
    tables = ScaledTailOracle(2, 6, prec)
    balls = []
    for r in (3, Fraction(13, 4), Fraction(1, 3)):
        oracle = tables.at(r)
        balls += [[oracle.balls(t)[n] for n in range(7)] for t in ts]
    out["ScaledDerivative.balls"] = balls
    return out


# the transforms of the pinned quadrature: kind, k, weight, rel_tol; the
# tolerances are those verify_representation asks of the quadrature
QUADRATURE_KERNELS = (
    ("f12", 0, 0, "5e-11"), ("f12", 1, 0, "5e-11"), ("bessel", 2, 0, "5e-11"),
    ("h", 0, 0, "5e-9"), ("h", 0, 1, "5e-9"), ("h", 0, 2, "5e-9"),
)
QUADRATURE_ZS = ("0.05", "1", "3.5")


def quadrature_results(digits):
    """{transform: the raw mpfs of its value, error bound, tail bound and
    truncation point, with its nodes and bound evaluations} at digits, over
    QUADRATURE_KERNELS and QUADRATURE_ZS, and at z = 1 under the tightest
    tolerance the digits admit, where the nodes take more than 30 digits."""
    prec = WorkingPrecision(digits)
    cases = [(spec, z) for spec in QUADRATURE_KERNELS for z in QUADRATURE_ZS]
    tight = f"1e-{digits - 10}"
    cases += [((kind, k, weight, tight), "1") for kind, k, weight in
              (("f12", 1, 0), ("bessel", 2, 0), ("h", 0, 1))]
    out = {}
    for (kind, k, weight, rel_tol), z in cases:
        quad = laplace_transform(KernelSpec(kind, k, weight), z, rel_tol, prec)
        out[f"{kind}-k{k}-w{weight}-z{z}-tol{rel_tol}"] = (
            quad.value._mpf_,
            quad.error_bound._mpf_,
            quad.tail_bound._mpf_,
            quad.truncation_point._mpf_,
            quad.nodes,
            quad.bound_evaluations,
        )
    return out


def _digests(results):
    return {
        core: hashlib.sha256(repr(value).encode()).hexdigest()[:16]
        for core, value in results.items()
    }


# the digests of core_results from the cores that set mp.prec by a context
PINNED = {
    30: {"polygamma_fixed": "650ca7068b907ad6", "exp_recip_derivative": "15a39c3751605f5a", "h_balls": "a57b8de801f25c39", "hk_sums": "07a09ede4eab5d07", "ScaledDerivative.balls": "526d5e123395ebb2"},
    50: {"polygamma_fixed": "dad11eca634bccff", "exp_recip_derivative": "f2fe3422e43aeba5", "h_balls": "62310950eab1e66f", "hk_sums": "e88bf9ff84f74763", "ScaledDerivative.balls": "0a623a33e96b314e"},
    100: {"polygamma_fixed": "b004073fbca14af1", "exp_recip_derivative": "87375af0a59cd859", "h_balls": "3fc8610f95c22e68", "hk_sums": "477f7b668ed3f160", "ScaledDerivative.balls": "0eaa761e05ed4972"},
    200: {"polygamma_fixed": "08f7890a5d966368", "exp_recip_derivative": "662ec8a5c14d14aa", "h_balls": "e932124070486a73", "hk_sums": "9a1dbbbfa0242603", "ScaledDerivative.balls": "97e182f7afe140d2"},
}

# the digests of quadrature_results from the mpf quadrature, whose every
# step ran in a precision context at its policy's digits
PINNED_QUADRATURE = {30: "ce04a376317a3658", 50: "6c56235fef50ea04", 100: "85f762a04eb7e2da"}


def _counting_contexts(monkeypatch):
    """A list that grows by one at each precision context entered."""
    entered = []
    enter = ctx_mp.PrecisionManager.__enter__

    def counted(self):
        entered.append(1)
        return enter(self)

    monkeypatch.setattr(ctx_mp.PrecisionManager, "__enter__", counted)
    return entered


class TestContextFreeCores:
    @pytest.mark.parametrize("digits", CORE_DIGITS)
    def test_integers_are_the_pinned_ones(self, digits):
        assert _digests(core_results(digits)) == PINNED[digits]

    @pytest.mark.parametrize("digits", CORE_DIGITS)
    def test_ambient_precision_is_ignored(self, digits):
        with WorkingPrecision(digits).workdps():
            want = core_results(digits)
        for ambient in (15, 600):
            with mp.workdps(ambient):
                prec = mp.prec
                assert core_results(digits) == want, ambient
                assert mp.prec == prec

    def test_scans_enter_no_context_per_point(self, monkeypatch):
        entered = _counting_contexts(monkeypatch)
        scans = {
            "h": lambda grid, prec: check_sign_pattern(HOracle(4, prec), grid, 4, prec),
            "trigamma": lambda grid, prec: check_ineq_trigamma(grid, prec),
            "hk": lambda grid, prec: check_sign_pattern(
                ScaledTailOracle(2, 6, prec).at(3), grid, 6, prec
            ),
        }
        for name, scan in scans.items():
            counts = []
            for points in (20, 40):
                scan(LogGrid("0.05", "50", 5), WorkingPrecision(50))
                entered.clear()
                scan(LogGrid("0.05", "50", points), WorkingPrecision(50))
                counts.append(len(entered))
            assert counts[1] <= counts[0], (name, counts)


class TestContextFreeQuadrature:
    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_quadrature_is_the_pinned_one(self, digits):
        digest = hashlib.sha256(repr(quadrature_results(digits)).encode()).hexdigest()
        assert digest[:16] == PINNED_QUADRATURE[digits]

    @pytest.mark.parametrize("digits", (30, 50, 100))
    def test_ambient_precision_is_ignored(self, digits):
        with WorkingPrecision(digits).workdps():
            want = quadrature_results(digits)
        for ambient in (15, 600):
            with mp.workdps(ambient):
                prec = mp.prec
                assert quadrature_results(digits) == want, ambient
                assert mp.prec == prec

    @pytest.mark.parametrize("low", ("1e-30", "1e-5", "0.01", "0.2", "0.25", "0.3", "2"))
    def test_h_majorant_takes_the_mpf_expm1(self, low):
        """The h majorant's 1 - e^-low is -mp.expm1(-low) at the bound
        precision on both sides of 1/4: below about 2^-9 mpmath's expm1
        cancels 10 bits or more and sums again at more bits, which one sum
        at p + 25 bits would not; radius 7 > 2 pi leaves out the series."""
        prec = WorkingPrecision(30)
        with prec.workdps():
            radius, low = mp.mpf(7), mp.mpf(low)
            want = kernel_1f2(0, radius, prec) + radius / (-mp.expm1(-low))
        majorant = KernelSpec("h")._majorant(radius._mpf_, low._mpf_, prec)
        assert mp.make_mpf(majorant) == want

    def test_u_ratio_replica_at_a_double_rounding(self):
        """At this u, about 0.2909, e^-u - 1 lies so near a midpoint of the
        153-bit grid (30 digits) that one sum at 153 + 24 bits rounds onto it
        and then to the other side than mp.expm1's sum at 153 + 25; h_kernel
        forms u/(1 - e^-u) as u_ratio, through mp.expm1, does."""
        prec = WorkingPrecision(30)
        u = mp.make_mpf((0, 3321964951962051988199783304602565818647104741, -153, 152))
        ((_, ratio),) = _h_pieces([u._mpf_], prec)
        assert mp.make_mpf(ratio) == u_ratio(u, prec)

    def test_quadrature_enters_no_context_per_panel(self, monkeypatch):
        """The f12 and bessel transforms at z = 0.01 (306 nodes) enter no more
        precision contexts than at z = 2 (64 nodes): two per transform, one
        at prec and one at the bound precision, none per panel, node or
        edge.  The h transforms enter one more per majorant whose ellipse
        has 0 < Re w < 1/4, where 1 - e^-low is mp.expm1's, taken in its
        own context: one to three at these points."""
        entered = _counting_contexts(monkeypatch)
        expm1 = mp.expm1
        calls = []

        def counted(x):
            calls.append(1)
            return expm1(x)

        monkeypatch.setattr(mp, "expm1", counted)
        prec = WorkingPrecision(50)
        for spec in (KernelSpec("f12", 1), KernelSpec("bessel", 2)):
            counts = []
            for z in ("2", "0.01"):
                laplace_transform(spec, z, "5e-11", prec)
                entered.clear()
                quad = laplace_transform(spec, z, "5e-11", prec)
                counts.append((len(entered), quad.nodes))
            assert counts[0][0] == counts[1][0] == 2, (spec, counts)
            assert counts[1][1] > 4 * counts[0][1], (spec, counts)
        for weight in range(3):
            for z in ("2", "0.01", "5"):
                laplace_transform(KernelSpec("h", weight=weight), z, "5e-9", prec)
                entered.clear()
                calls.clear()
                laplace_transform(KernelSpec("h", weight=weight), z, "5e-9", prec)
                assert len(entered) == 2 + len(calls) <= 5, (weight, z)


class NoStop(WorkingPrecision):
    @property
    def series_stop(self):
        return mp.mpf(0)


class TestErrorTexts:
    """A failure prints t at the working digits of the policy that refused
    it, whatever the ambient precision is."""

    T = "0.12345678901234567890123"

    def test_polygamma_failure(self):
        with pytest.raises(NumericFailure) as failure:
            polygamma_fixed(1, 9, self.T, NoStop(30))
        assert str(failure.value) == (
            "polygamma: asymptotic tail failed to contract "
            "(n=1, t=0.12345678901234567890123)"
        )

    @pytest.mark.parametrize("core", ("polygamma_fixed", "hk_sums", "h_balls"))
    def test_negative_t(self, core):
        call = {
            "polygamma_fixed": lambda t, prec: polygamma_fixed(1, 1, t, prec),
            "hk_sums": lambda t, prec: hk_sums(0, t, 0, prec),
            "h_balls": lambda t, prec: h_balls(0, 0, t, prec),
        }[core]
        with pytest.raises(ValueError) as error:
            call("-" + self.T, WorkingPrecision(50))
        assert str(error.value) == "t must be positive, got -0.12345678901234567890123"

    def test_hk_budget_failure(self):
        with pytest.raises(NumericFailure) as failure:
            hk_sums(0, "1.2345678901234567890123e-100", 0, WorkingPrecision(50))
        assert str(failure.value) == (
            "hk_sums: exp route budget exhausted (k=0, t=1.2345678901234567890123e-100)"
        )
