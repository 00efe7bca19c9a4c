"""The verification battery: every headline claim checked at desk scale.

Each criterion function returns a JSON-ready record with a passed flag and
the quantities that justify it (values as decimal strings).  run_suite
executes all of them; the CLI `suite` subcommand and the acceptance tests
both consume these records, so there is exactly one implementation of what
"passing" means.
"""

import time
from fractions import Fraction
from functools import partial

from mpmath import mp

from .cmdeg import (
    DEFAULT_H_GRID,
    DEFAULT_H_ORDER,
    HOracle,
    LogGrid,
    ball_minimum,
    check_sign_pattern,
    estimate_cm_degree,
)
from .inequalities import (
    DEFAULT_BESSEL_GRID,
    DEFAULT_NEGATIVITY_GRID,
    DEFAULT_TRIGAMMA_GRID,
    _difference_bound,
    bessel_margin,
    check_ineq_bessel,
    check_ineq_trigamma,
    f_poly,
    trigamma_margin,
)
from .laplace import (
    KernelSpec,
    kernel_1f2,
    kernel_bessel,
    laplace_transform,
    verify_representation,
)
from .laurent import h_balls, h_sign_balls
from .specfun import DEFAULT_PRECISION, polygamma, to_mpf


def _fmt(x, prec):
    # mp.mpf(x) would re-round an existing mpf to the ambient context, so
    # only convert non-mpf inputs, and do that at working precision
    if isinstance(x, mp.mpf):
        return mp.nstr(x, prec.digits)
    with prec.workdps():
        return mp.nstr(to_mpf(x), prec.digits)


def criterion_degree(prec=DEFAULT_PRECISION):
    """Degree brackets: width <= 1/32 containing k+1 for k = 0..4, under 60 s."""
    start = time.monotonic()
    brackets = []
    ok = True
    with prec.workdps():
        tol = mp.mpf(1) / 32
        for k in range(5):
            est = estimate_cm_degree(k, tol=tol, prec=prec)
            contains = bool(est.r_lo <= k + 1 <= est.r_hi)
            good = contains and est.width <= tol + mp.mpf("1e-30")
            ok = ok and good
            brackets.append(
                {
                    "k": k,
                    "r_lo": _fmt(est.r_lo, prec),
                    "r_hi": _fmt(est.r_hi, prec),
                    "width": _fmt(est.width, prec),
                    "contains_k_plus_1": contains,
                    "series": est.series,
                }
            )
    elapsed = time.monotonic() - start
    return {
        "id": "degree-brackets",
        "description": "bisected degree bracket of width <= 1/32 containing k+1, k = 0..4",
        "provenance": "series",
        "brackets": brackets,
        "elapsed_seconds": round(elapsed, 3),
        "budget_seconds": 60,
        "passed": bool(ok and elapsed < 60),
    }


def _h_ball(t, prec):
    """A ball of h(t) that ranks h, or None: the rung's ball of h - 1, which
    holds h_table's value less 1 too, moved back up by 1 unless its unit
    2^x >= 2 took the 1 as radius.  Its radius is under 1/16 of h - 1 ~
    1/(24 t^4), which changes by about 20% per step of DEFAULT_H_GRID."""
    balls = h_sign_balls(0, t, prec, less=1)
    if balls is None:
        return None
    ((mid, rad, x),) = balls
    return (mid, rad, x) if x > 0 else (mid + (1 << -x), rad, x)


def criterion_h_complete_monotonicity(prec=DEFAULT_PRECISION):
    """(-1)^i h^(i)(t) > 0 for i <= 8 on [0.05, 1e3], h > 1, h(100) ~ 1."""
    start = time.monotonic()
    oracle = HOracle(DEFAULT_H_ORDER, prec)
    report = check_sign_pattern(oracle, DEFAULT_H_GRID, DEFAULT_H_ORDER, prec)
    with prec.workdps():
        # ball_minimum evaluates h at prec only where a ball of h that
        # ranks it leaves t a candidate for the minimum
        ts = DEFAULT_H_GRID.values(prec)
        min_h = ball_minimum(ts, partial(_h_ball, prec=prec), partial(oracle, 0))[0]
        h100_gap = abs(trigamma_margin(100, prec))
        passed = bool(
            report.passed
            and min_h > 1
            and h100_gap < mp.mpf("1e-8")
        )
        return {
            "id": "h-complete-monotonicity",
            "description": "alternating derivative signs of h through order 8, h > 1, h(100) -> 1",
            "provenance": "closed-form",
            "min_signed_derivative": _fmt(report.min_signed, prec),
            "argmin_order": report.argmin_order,
            "argmin_t": _fmt(report.argmin_t, prec),
            "min_h": _fmt(min_h, prec),
            "h100_minus_1": _fmt(h100_gap, prec),
            "elapsed_seconds": round(time.monotonic() - start, 3),
            "passed": passed,
        }


def criterion_representations(prec=DEFAULT_PRECISION):
    """F12/BESSEL at 1e-10 for k <= 3, z in {0.5,1,2,5}; H, H' at 1e-8; under 30 s."""
    start = time.monotonic()
    cases = [
        (rep, k, z, "1e-10")
        for rep in ("f12", "bessel")
        for k in range(4)
        for z in ("0.5", "1", "2", "5")
    ] + [
        (rep, idx, z, "1e-8")
        for rep, idx in (("h", 0), ("h_deriv", 1), ("h_deriv", 2))
        for z in ("1", "2")
    ]
    checks = []
    for rep, index, z, tol in cases:
        c = verify_representation(rep, index, z=z, rel_tol=tol, prec=prec)
        checks.append(
            {
                "rep": rep,
                "index": index,
                "z": z,
                "rel_err": mp.nstr(c.rel_err, 6),
                "passed": c.passed,
            }
        )
    ok = all(c["passed"] for c in checks)
    elapsed = time.monotonic() - start
    return {
        "id": "integral-representations",
        "description": "closed forms vs certified quadrature for all four representations",
        "provenance": "quadrature",
        "checks": checks,
        "elapsed_seconds": round(elapsed, 3),
        "budget_seconds": 30,
        "passed": bool(ok and elapsed < 30),
    }


def criterion_kernel_identities(prec=DEFAULT_PRECISION):
    """Kernel routes agree within series_stop for k <= 5, t in {0.1, 1, 10, 100}.

    kernel_1f2, kernel_bessel and bessel_i share specfun's one 1F2
    summation, so every reference side comes from mpmath's own hyp1f2 and
    besseli instead.
    """
    start = time.monotonic()
    with prec.workdps():
        pairs = []
        for t in map(mp.mpf, ("0.1", "1", "10", "100")):
            root = mp.sqrt(t)
            for k in range(6):
                front = t ** k / (mp.factorial(k) * mp.factorial(k + 1))
                bessel = mp.besseli(k + 2, 2 * root) / t ** (mp.mpf(k + 2) / 2)
                pairs += [
                    (kernel_1f2(k, t, prec), front * mp.hyp1f2(1, k + 1, k + 2, t)),
                    (kernel_bessel(k, t, prec), bessel),
                ]
            pairs.append((kernel_1f2(0, t, prec), mp.besseli(1, 2 * root) / root))
        worst = max(abs(got - want) / want for got, want in pairs)
        tol = prec.series_stop
        ok = worst < tol
        return {
            "id": "kernel-identities",
            "description": "1F2 kernel vs mpmath hyp1f2, Bessel kernel vs mpmath "
            "besseli composite, k = 0 cross-identity vs mpmath besseli",
            "provenance": "series",
            "worst_rel_gap": mp.nstr(worst, 6),
            "tolerance": mp.nstr(tol, 6),
            "elapsed_seconds": round(time.monotonic() - start, 3),
            "passed": bool(ok),
        }


def criterion_inequalities(prec=DEFAULT_PRECISION):
    """Both inequality scans strictly positive on their default grids."""
    start = time.monotonic()
    bessel = check_ineq_bessel(DEFAULT_BESSEL_GRID, prec)
    trigamma = check_ineq_trigamma(DEFAULT_TRIGAMMA_GRID, prec)
    with prec.workdps():
        tight = sum(1 for t in DEFAULT_BESSEL_GRID.values(prec) if t <= mp.mpf("0.2"))
        # margin is increasing, so its value at t = 0.2 bounds the whole
        # tight region; below 1e-7 there, 30+ digits are genuinely needed
        margin_02 = bessel_margin("0.2", prec)
        tight_resolved = bool(mp.mpf(0) < margin_02 < mp.mpf("1e-7"))
    return {
        "id": "inequality-scans",
        "description": "Bessel lower bound on (0, 50] and trigamma bound on [0.01, 100]",
        "provenance": "series",
        "bessel_min_margin": _fmt(bessel.min_margin, prec),
        "bessel_argmin_t": _fmt(bessel.argmin_t, prec),
        "bessel_points": bessel.evaluations,
        "bessel_points_below_0.2": tight,
        "bessel_margin_at_0.2": mp.nstr(margin_02, 6),
        "trigamma_min_margin": _fmt(trigamma.min_margin, prec),
        "trigamma_argmin_t": _fmt(trigamma.argmin_t, prec),
        "elapsed_seconds": round(time.monotonic() - start, 3),
        "passed": bool(
            bessel.passed and trigamma.passed and tight >= 30 and tight_resolved
        ),
    }


def criterion_proof_algebra(prec=DEFAULT_PRECISION):
    """Exact form equivalences, f_i negativity, and the difference bound."""
    start = time.monotonic()
    points = (Fraction(1, 2), 1, Fraction(3, 2), 2, 7)
    ab_ok = all(
        f_poly(i, t, "A") == f_poly(i, t, "B") for i in range(13) for t in points
    )
    acd_ok = all(
        f_poly(i, t, "A") == f_poly(i, t, "C") == f_poly(i, t, "D")
        for i in range(1, 13)
        for t in points
    )
    anomaly_ok = (
        f_poly(0, 1, "C") == -22
        and f_poly(0, 1, "D") == -22
        and f_poly(0, 1, "A") == -2
    )
    with prec.workdps():
        neg_ok = all(
            f_poly(i, t, "A", prec) < 0
            for i in range(13)
            for t in DEFAULT_NEGATIVITY_GRID.values(prec)
        )
        # one ball table of the orders 0..6 at t and at t + 1 (exact) serves
        # every i
        ts = LogGrid(0.25, 50, 25).values(prec)
        balls = partial(h_balls, 0, 6, prec=prec)
        tables = [(balls(t), balls(mp.fadd(t, 1, exact=True))) for t in ts]
        diff_ok = all(
            _difference_bound(i, t, at[i], after[i], prec).passed
            for i in range(7)
            for t, (at, after) in zip(ts, tables)
        )
    return {
        "id": "proof-algebra",
        "description": "f_i form equivalences (exact), negativity, difference-derivative bound",
        "provenance": "exact",
        "forms_a_b_equal_i_0_12": ab_ok,
        "forms_a_c_d_equal_i_1_12": acd_ok,
        "form_c_i0_anomaly_minus22_vs_minus2": anomaly_ok,
        "negativity_i_0_12": neg_ok,
        "difference_bound_i_0_6": diff_ok,
        "elapsed_seconds": round(time.monotonic() - start, 3),
        "passed": bool(ab_ok and acd_ok and anomaly_ok and neg_ok and diff_ok),
    }


def criterion_polygamma_identities(prec=DEFAULT_PRECISION):
    """Polygamma closed forms, gaps relative to them, and the recurrence,
    residual relative to |psi^(n)(t+1)| + |psi^(n)(t)|, within 2 series_stop:
    polygamma is within series_stop of itself and 2^-(mp.prec+21) more."""
    start = time.monotonic()
    with prec.workdps():
        tol = 2 * prec.series_stop
        checks = [
            ("psi1(1) = pi^2/6", polygamma(1, 1, prec), mp.pi ** 2 / 6),
            ("psi1(1/2) = pi^2/2", polygamma(1, "0.5", prec), mp.pi ** 2 / 2),
            ("psi2(1) = -2 zeta(3)", polygamma(2, 1, prec), -2 * mp.zeta(3)),
        ]
        identity_ok = True
        rows = []
        for label, got, want in checks:
            gap = abs(got - want) / abs(want)
            identity_ok = identity_ok and gap < tol
            rows.append({"identity": label, "rel_gap": mp.nstr(gap, 6)})
        grid = LogGrid(0.1, 100, 40)
        worst = worst_rel = mp.mpf(0)
        for n in (1, 2, 3):
            for t in grid.values(prec):
                after, at = polygamma(n, t + 1, prec), polygamma(n, t, prec)
                res = abs(after - at - (-1) ** n * mp.factorial(n) / t ** (n + 1))
                worst = max(worst, res)
                worst_rel = max(worst_rel, res / (abs(after) + abs(at)))
        return {
            "id": "polygamma-identities",
            "description": "trigamma/tetragamma closed forms and the recurrence, "
            "relative gaps within twice the series stop",
            "provenance": "closed-form",
            "identities": rows,
            "worst_recurrence_residual": mp.nstr(worst, 6),
            "worst_recurrence_rel_residual": mp.nstr(worst_rel, 6),
            "tolerance": mp.nstr(tol, 6),
            "elapsed_seconds": round(time.monotonic() - start, 3),
            "passed": bool(identity_ok and worst_rel < tol),
        }


def criterion_calibration(prec=DEFAULT_PRECISION):
    """Transform engine vs n!/z^(n+1) on monomials, rel 1e-12."""
    start = time.monotonic()
    with prec.workdps():
        tol = mp.mpf("1e-12")
        worst = mp.mpf(0)
        ok = True
        for n, z in [(0, 2)] + [(n, z) for n in range(5) for z in (1, 3)]:
            q = laplace_transform(KernelSpec("const", weight=n), z, "1e-13", prec)
            exact = mp.factorial(n) / mp.mpf(z) ** (n + 1)
            gap = abs(q.value - exact) / exact
            worst = max(worst, gap)
            ok = ok and gap < tol
        return {
            "id": "quadrature-calibration",
            "description": "monomial transforms against n!/z^(n+1)",
            "provenance": "quadrature",
            "worst_rel_err": mp.nstr(worst, 6),
            "tolerance": "1e-12",
            "elapsed_seconds": round(time.monotonic() - start, 3),
            "passed": bool(ok),
        }


CRITERIA = (
    criterion_degree,
    criterion_h_complete_monotonicity,
    criterion_representations,
    criterion_kernel_identities,
    criterion_inequalities,
    criterion_proof_algebra,
    criterion_polygamma_identities,
    criterion_calibration,
)


def run_suite(prec=DEFAULT_PRECISION):
    """Run every criterion; returns (records, all_passed)."""
    records = [fn(prec) for fn in CRITERIA]
    return records, all(r["passed"] for r in records)
