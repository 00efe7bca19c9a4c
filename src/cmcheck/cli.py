"""Command line front end.

Subcommands
    eval             evaluate one library function at a point
    degree           bracket the completely monotonic degree of H_k
    verify-cm        scan derivative sign patterns of h or of t^r H_k
    verify-integral  closed form vs certified quadrature
    inequality       positivity scan of one of the two inequalities
    fpoly            evaluate one of the four f_i polynomial forms
    suite            the full verification battery

Exit codes: 0 every check passed, 1 a mathematical check failed, 2 usage
or domain error, 3 the numerics could not certify a result.

Reports serialize to JSON (canonical) or CSV (one record per row under a
fixed header); numeric values are decimal strings carrying `digits`
significant digits.  Identical invocations produce identical reports
apart from the timing field.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .cmdeg import (
    DEFAULT_DEGREE_GRID,
    DEFAULT_DEGREE_ORDER,
    DEFAULT_H_GRID,
    DEFAULT_H_ORDER,
    HOracle,
    LogGrid,
    ScaledTailOracle,
    check_sign_pattern,
    estimate_cm_degree,
    scaled_remainder_derivative,
)
from .inequalities import (
    DEFAULT_BESSEL_GRID,
    DEFAULT_TRIGAMMA_GRID,
    FPOLY_FORMS,
    check_ineq_bessel,
    check_ineq_trigamma,
    f_poly,
    fpoly_validated,
)
from .laplace import (
    h_kernel,
    kernel_1f2,
    kernel_bessel,
    u_ratio,
    verify_representation,
)
from .laurent import (
    _hk_exp_side,
    h_derivative,
    h_function,
    remainder_hk,
    remainder_hk_derivative,
)
from .specfun import (
    NumericFailure,
    WorkingPrecision,
    _dyadic,
    a_coeff,
    bessel_i,
    exp_recip_derivative,
    hyp1f2,
    polygamma,
    shifted_factorial,
    to_mpf,
)
from .suite import _fmt, run_suite

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _rational(text):
    """Parse an exact-friendly number: int, p/q, or a decimal string.

    Decimal strings are passed through untouched; the library converts
    them at working precision so the command line never loses digits to
    binary floats.
    """
    if isinstance(text, (int, Fraction)):
        return text
    s = str(text).strip()
    if "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"{s} has a zero denominator") from None
    try:
        return int(s)
    except ValueError:
        return s


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required here")


def _reject(args, *names):
    for name in names:
        if getattr(args, name, None) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply here")


def _is_exact(value):
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _serialize_value(value, prec):
    return str(value) if _is_exact(value) else _fmt(value, prec)


# every eval flag; the last four parse as integers
EVAL_FLAGS = ("t", "z", "r", "a", "b1", "b2", "i", "k", "n", "nu")


def _hk_route(k, ts, prec):
    """The provenance of H_k values at the ascending ts by hk_sums' route at
    the two ends: "closed-form" from the seam 1/t = 2(k+1) on, where it
    takes one exponential less its head, "series" below it, and
    "series+closed-form" where the seam splits ts, at most once."""
    with prec.workdps():
        low, high = (
            "closed-form" if _hk_exp_side(k, *_dyadic(to_mpf(t))) else "series"
            for t in (ts[0], ts[-1])
        )
    return low if low == high else "series+closed-form"


def _hk_point_route(args, prec):
    """_hk_route at the --z or --t of an eval."""
    return _hk_route(args.k, [args.t if args.z is None else args.z], prec)


# fn name -> (required flags, provenance or callable(args, prec) -> provenance,
# callable(args, prec) -> value)
EVAL_FNS = {
    "trigamma": (("t",), "series", lambda a, p: polygamma(1, a.t, p)),
    "polygamma": (("n", "t"), "series", lambda a, p: polygamma(a.n, a.t, p)),
    "exp-recip-deriv": (
        ("i", "t"),
        "closed-form",
        lambda a, p: exp_recip_derivative(a.i, a.t, p),
    ),
    "bessel-i": (("nu", "z"), "series", lambda a, p: bessel_i(a.nu, a.z, p)),
    "hyp1f2": (
        ("b1", "b2", "t"),
        "series",
        lambda a, p: hyp1f2(_rational(a.b1), _rational(a.b2), a.t, p),
    ),
    "shifted-factorial": (
        ("a", "n"),
        "exact",
        lambda a, p: shifted_factorial(_rational(a.a), a.n, p),
    ),
    "a-coeff": (("i", "k"), "exact", lambda a, p: a_coeff(a.i, a.k)),
    "hk": (("k", "z"), _hk_point_route, lambda a, p: remainder_hk(a.k, a.z, p)),
    "hk-deriv": (
        ("k", "n", "t"),
        _hk_point_route,
        lambda a, p: remainder_hk_derivative(a.k, a.n, a.t, p),
    ),
    "hk-scaled-deriv": (
        ("k", "r", "n", "t"),
        _hk_point_route,
        lambda a, p: scaled_remainder_derivative(a.k, _rational(a.r), a.n, a.t, p),
    ),
    "h": (("t",), "closed-form", lambda a, p: h_function(a.t, p)),
    "h-deriv": (("i", "t"), "closed-form", lambda a, p: h_derivative(a.i, a.t, p)),
    "kernel-1f2": (("k", "t"), "series", lambda a, p: kernel_1f2(a.k, a.t, p)),
    "kernel-bessel": (("k", "t"), "series", lambda a, p: kernel_bessel(a.k, a.t, p)),
    "h-kernel": (("t",), "series", lambda a, p: h_kernel(a.t, p)),
    "u-ratio": (("t",), "closed-form", lambda a, p: u_ratio(a.t, p)),
}


def cmd_eval(args, prec):
    required, provenance, fn = EVAL_FNS[args.fn]
    _reject(args, *(name for name in EVAL_FLAGS if name not in required))
    _require(args, *required)
    value = fn(args, prec)
    if _is_exact(value):
        provenance = "exact"
    elif callable(provenance):
        provenance = provenance(args, prec)
    return [
        {
            "id": args.fn,
            "provenance": provenance,
            "value": _serialize_value(value, prec),
            "passed": True,
        }
    ]


def cmd_degree(args, prec):
    grid = LogGrid(args.grid_min, args.grid_max, args.grid_points)
    if (args.r_min is None) != (args.r_max is None):
        raise ValueError("--r-min and --r-max must be given together")
    search = None
    if args.r_min is not None:
        search = (_rational(args.r_min), _rational(args.r_max))
    estimate = estimate_cm_degree(
        args.k,
        search=search,
        tol=_rational(args.tol),
        grid=grid,
        max_order=args.max_order,
        prec=prec,
    )
    contains = bool(estimate.r_lo <= args.k + 1 <= estimate.r_hi)
    return [
        {
            "id": f"degree-bracket-k{args.k}",
            "provenance": _hk_route(args.k, (grid.t_min, grid.t_max), prec),
            "r_lo": _fmt(estimate.r_lo, prec),
            "r_hi": _fmt(estimate.r_hi, prec),
            "width": _fmt(estimate.width, prec),
            "bisections": estimate.bisections,
            "series": estimate.series,
            "contains_k_plus_1": contains,
            "passed": contains,
        }
    ]


def _grid(args, default):
    """The scan grid from --grid-min/max/points, each missing flag from default."""
    return LogGrid(
        args.grid_min if args.grid_min is not None else default.t_min,
        args.grid_max if args.grid_max is not None else default.t_max,
        args.grid_points if args.grid_points is not None else default.points,
    )


def cmd_verify_cm(args, prec):
    given = args.max_order
    if args.target == "hk":
        _require(args, "k")
        grid = _grid(args, DEFAULT_DEGREE_GRID)
        max_order = given if given is not None else DEFAULT_DEGREE_ORDER
        r = _rational(args.r) if args.r is not None else args.k + 1
        oracle = ScaledTailOracle(args.k, max_order, prec).at(r)
        label = f"sign-pattern-hk-k{args.k}"
        provenance = _hk_route(args.k, (grid.t_min, grid.t_max), prec)
    else:
        _reject(args, "k", "r")
        grid = _grid(args, DEFAULT_H_GRID)
        max_order = given if given is not None else DEFAULT_H_ORDER
        oracle = HOracle(max_order, prec)
        label = "sign-pattern-h"
        provenance = "series"
    report = check_sign_pattern(oracle, grid, max_order, prec)
    record = {
        "id": label,
        "provenance": provenance,
        "max_order": report.max_order,
        "evaluations": report.evaluations,
        "min_signed": _fmt(report.min_signed, prec),
        "argmin_order": report.argmin_order,
        "argmin_t": _fmt(report.argmin_t, prec),
        "passed": report.passed,
    }
    if report.violation is not None:
        record["violation"] = {
            "order": report.violation.order,
            "t": _fmt(report.violation.t, prec),
            "value": _fmt(report.violation.value, prec),
        }
    return [record]


def cmd_verify_integral(args, prec):
    rep = args.rep.replace("-", "_")
    if rep == "h_deriv":
        _reject(args, "k")
        _require(args, "n")
        index = args.n
    else:
        _reject(args, "n")
        if rep == "h":
            _reject(args, "k")
        index = args.k if args.k is not None else 0
    check = verify_representation(rep, index, z=args.z, rel_tol=args.rel_tol, prec=prec)
    return [
        {
            "id": f"representation-{args.rep}",
            "provenance": "quadrature",
            "index": check.index,
            "z": str(args.z),
            "lhs": _fmt(check.lhs, prec),
            "rhs": _fmt(check.rhs, prec),
            "rel_err": mp.nstr(check.rel_err, 8),
            "tolerance": mp.nstr(check.tol, 5),
            "quadrature_nodes": check.quadrature.nodes,
            "bound_evaluations": check.quadrature.bound_evaluations,
            "error_bound": mp.nstr(check.quadrature.error_bound, 5),
            "tail_bound": mp.nstr(check.quadrature.tail_bound, 5),
            "passed": check.passed,
        }
    ]


def cmd_inequality(args, prec):
    default = DEFAULT_TRIGAMMA_GRID if args.which == "trigamma" else DEFAULT_BESSEL_GRID
    grid = _grid(args, default)
    checker = check_ineq_trigamma if args.which == "trigamma" else check_ineq_bessel
    report = checker(grid, prec)
    return [
        {
            "id": f"inequality-{args.which}",
            "provenance": "series",
            "min_margin": _fmt(report.min_margin, prec),
            "argmin_t": _fmt(report.argmin_t, prec),
            "evaluations": report.evaluations,
            "passed": report.passed,
        }
    ]


def cmd_fpoly(args, prec):
    value = f_poly(args.i, _rational(args.t), args.form, prec)
    return [
        {
            "id": f"fpoly-{args.form}-i{args.i}",
            "provenance": "exact" if _is_exact(value) else "closed-form",
            "value": _serialize_value(value, prec),
            "validated_form": fpoly_validated(args.i, args.form),
            "passed": True,
        }
    ]


def cmd_suite(args, prec):
    records, _ = run_suite(prec)
    return records


COMMANDS = {
    "eval": cmd_eval,
    "degree": cmd_degree,
    "verify-cm": cmd_verify_cm,
    "verify-integral": cmd_verify_integral,
    "inequality": cmd_inequality,
    "fpoly": cmd_fpoly,
    "suite": cmd_suite,
}


def _add_common(p):
    p.add_argument(
        "--digits", type=int, default=50, help="significant digits, at least 30"
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmcheck",
        description="Verified evaluation of the Laurent-tail remainder family, "
        "its complete-monotonicity structure, and the associated "
        "integral representations and inequalities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate one library function at a point")
    p.add_argument("--fn", required=True, choices=tuple(EVAL_FNS))
    for flag in EVAL_FLAGS:
        p.add_argument(f"--{flag}", type=int if flag in EVAL_FLAGS[-4:] else None)
    _add_common(p)

    p = sub.add_parser("degree", help="bracket the completely monotonic degree of H_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", default="1/32")
    p.add_argument("--r-min", dest="r_min")
    p.add_argument("--r-max", dest="r_max")
    p.add_argument("--grid-min", dest="grid_min", default=DEFAULT_DEGREE_GRID.t_min)
    p.add_argument("--grid-max", dest="grid_max", default=DEFAULT_DEGREE_GRID.t_max)
    p.add_argument(
        "--grid-points", dest="grid_points", type=int, default=DEFAULT_DEGREE_GRID.points
    )
    p.add_argument(
        "--max-order", dest="max_order", type=int, default=DEFAULT_DEGREE_ORDER
    )
    _add_common(p)

    p = sub.add_parser("verify-cm", help="scan derivative sign patterns")
    p.add_argument("--target", choices=("h", "hk"), default="h")
    p.add_argument("--k", type=int)
    p.add_argument("--r", help="scaling exponent for the hk target, default k+1")
    p.add_argument("--grid-min", dest="grid_min")
    p.add_argument("--grid-max", dest="grid_max")
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--max-order", dest="max_order", type=int)
    _add_common(p)

    p = sub.add_parser(
        "verify-integral", help="closed form vs certified quadrature at one point"
    )
    p.add_argument("--rep", required=True, choices=("f12", "bessel", "h", "h-deriv"))
    p.add_argument("--k", type=int, help="order k for --rep f12 and bessel, default 0")
    p.add_argument("--n", type=int, help="derivative order for --rep h-deriv")
    p.add_argument("--z", required=True)
    p.add_argument("--rel-tol", dest="rel_tol")
    _add_common(p)

    p = sub.add_parser("inequality", help="positivity scan of one inequality")
    p.add_argument("--which", required=True, choices=("trigamma", "bessel"))
    p.add_argument("--grid-min", dest="grid_min")
    p.add_argument("--grid-max", dest="grid_max")
    p.add_argument("--grid-points", dest="grid_points", type=int)
    _add_common(p)

    p = sub.add_parser("fpoly", help="evaluate one published form of f_i")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--t", required=True, help="int, p/q, or decimal")
    p.add_argument("--form", choices=FPOLY_FORMS, default="A")
    _add_common(p)

    p = sub.add_parser("suite", help="run the full verification battery")
    _add_common(p)

    return parser


@lru_cache(maxsize=None)
def _parser():
    """build_parser() once per process: parsing leaves the parser unchanged and
    no default is mutable, so every main call can share it."""
    return build_parser()


def _echo_inputs(args):
    skip = {"subcommand", "digits", "format", "out"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def _csv_cell(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return value


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["command", "id", "passed", "provenance", "value", "detail"])
    for record in report["results"]:
        rest = dict(record)
        rid = rest.pop("id", "")
        passed = rest.pop("passed", "")
        provenance = rest.pop("provenance", "")
        value = rest.pop("value", "")
        detail = ";".join(f"{k}={_csv_cell(v)}" for k, v in rest.items())
        writer.writerow([report["command"], rid, passed, provenance, value, detail])
    return out.getvalue()


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cmcheck-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None):
    args = _parser().parse_args(argv)
    start = time.monotonic()
    status = code = None
    try:
        prec = WorkingPrecision(args.digits)
        results = COMMANDS[args.subcommand](args, prec)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        status, code = "numeric-failure", EXIT_NUMERIC
        inputs = {
            key: value if isinstance(value, (int, str)) else _fmt(value, prec)
            for key, value in exc.inputs.items()
        }
        failure = {"operation": exc.operation, "detail": exc.detail, "inputs": inputs}
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        status, code = "usage-error", EXIT_USAGE
        failure = {"detail": str(exc)}
    if status is not None:
        # a failure still leaves a report: one record saying what went wrong
        results = [{"id": status, "passed": False, **failure}]
    report = {
        "command": args.subcommand,
        "inputs": _echo_inputs(args),
        "digits": args.digits,
        "results": results,
        "pass": all(bool(r.get("passed", True)) for r in results),
        "elapsed_seconds": round(time.monotonic() - start, 3),
    }
    if status is not None:
        report["status"] = status
    _emit(_render(report, args.format), args.out)
    if code is None:
        code = EXIT_PASS if report["pass"] else EXIT_VIOLATION
    return code


if __name__ == "__main__":
    sys.exit(main())
