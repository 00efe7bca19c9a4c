"""The mutation check of the radius proofs and the raw-mpf roundings.

Each mutant breaks one documented bound or rounding of src/cmcheck: a file,
an exact piece of its text, the text that replaces it, and the tests
(pytest node ids) of which at least one must then fail.  For each mutant
src/ is copied to a temporary directory, the piece is replaced there, and
pytest runs its tests with -x against the copy.  The script fails where a
mutant's text does not occur exactly once, or where its tests all pass.
EQUIVALENT lists the mutants that no test can kill, each with its reason;
their text must still occur exactly once.  Run from any directory:

    python tests/mutants.py [part of a mutant's name ...]

It needs only the standard library and pytest; pytest does not collect it.
(DeMillo, Lipton and Sayward, Hints on test data selection, IEEE Computer
11(4), 1978.)
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name file old new tests")

SIGN_GRIDS = (
    "tests/test_laurent.py::TestHSignBalls::"
    "test_balls_hold_both_values_on_the_default_grids[30-2]"
)
PINNED_CORES = "tests/test_cores.py::TestContextFreeCores::test_integers_are_the_pinned_ones"
PINNED_QUADRATURE = (
    "tests/test_cores.py::TestContextFreeQuadrature::test_quadrature_is_the_pinned_one"
)
LEFT_FOLD = "__import__('functools').reduce(lambda x, y: mpf_add(x, y, bits, _RN), "

MUTANTS = (
    # the sign rung of the h scans (laurent.h_sign_balls) and its widths
    Mutant(
        "sign rung: omitted term dropped",
        "laurent.py",
        "k = mag + v + 7",
        "k = v + 7",
        (SIGN_GRIDS,),
    ),
    Mutant(
        "sign rung: error of the exp part dropped",
        "laurent.py",
        "(e >> q) + 3 + ",
        "3 + ",
        ("tests/test_laurent.py::TestHSignBalls::test_balls_hold_both_values_at_random_t",),
    ),
    Mutant(
        "sign rung: trigamma stop judges h, not h - 1",
        "laurent.py",
        "if rad << 4 > abs(mid):",
        "if rad << 4 > abs(e - p):",
        (
            SIGN_GRIDS,
            "tests/test_inequalities.py::TestInequalityScans::"
            "test_margins_come_from_the_balls[30]",
        ),
    ),
    Mutant(
        "sign rung: zero series stop accepted",
        "laurent.py",
        "if not s_num or s_num << 80",
        "if s_num << 80",
        (
            "tests/test_cmdeg.py::TestTwoPassHScan::test_failure_is_the_one_pass_failure",
            "tests/test_laurent.py::TestHSignBalls::test_declines",
        ),
    ),
    Mutant(
        "sign rung: width one bit short",
        "laurent.py",
        "return c + 5 + s_e - room.bit_length()",
        "return c + 4 + s_e - room.bit_length()",
        (
            "tests/test_laurent.py::TestHSignBalls::test_decides_just_below_each_width_step",
        ),
    ),
    Mutant(
        "h scans: no row at prec past the rung's cap",
        "cmdeg.py",
        "row or h_balls(0, self.max_order, t, self.prec)",
        "row",
        (
            "tests/test_cmdeg.py::TestTwoPassHScan::"
            "test_past_the_cap_the_rows_at_prec_settle_the_signs",
        ),
    ),
    # the sign contract of the scan walks: an evaluated value proves its sign
    Mutant(
        "sign: a plain callable's 0 accepted",
        "cmdeg.py",
        '    ball_sign(value, 0, "check_sign_pattern", n=n, t=t)\n',
        "",
        ("tests/test_cmdeg.py::TestCheckSignPattern::test_zero_value_is_undecided",),
    ),
    Mutant(
        "sign: the Bessel margin's radius dropped",
        "inequalities.py",
        '            ball_sign(value, radius, "check_ineq_bessel", t=t)\n',
        "",
        (
            "tests/test_inequalities.py::TestInequalityScans::"
            "test_undecided_bessel_margin_is_refused",
        ),
    ),
    Mutant(
        "sign: a t^r H_k value's bracket unchecked",
        "cmdeg.py",
        "        self._sign(bracket, sum(map(mul, magnitudes, radii)), n, t)\n",
        "",
        (
            "tests/test_cmdeg.py::TestTwoPassHkScan::"
            "test_undecided_ball_is_judged_at_prec",
        ),
    ),
    Mutant(
        "sign: refine accepts a zero mid",
        "specfun.py",
        "if not b[0] or b[1] * scale",
        "if b[1] * scale",
        ("tests/test_specfun.py::TestRefine::test_a_zero_mid_with_no_radius_holds_0",),
    ),
    # the one integer factor of every H_k and t^r H_k value (laurent._hk_factor)
    Mutant(
        "factor: scaled values at 64 bits",
        "cmdeg.py",
        "self._row(t, self.tables.prec.bits + _GUARD_BITS)",
        "self._row(t, _FACTOR_BITS)",
        ("tests/test_laurent.py::TestScaledDerivatives::test_frozen_value",),
    ),
    Mutant(
        "factor: hk_table at 64 bits",
        "laurent.py",
        "_hk_factor(k, t, p, max_order, bits + _GUARD_BITS)",
        "_hk_factor(k, t, p, max_order, 64)",
        ("tests/test_laurent.py::TestRemainderDerivatives::test_termwise_oracle",),
    ),
    Mutant(
        "factor: slack dropped from the value balls",
        "cmdeg.py",
        "g * (9 + 4 * n) >> bits",
        "g * (9 + 4 * n) * (bits == _FACTOR_BITS) >> bits",
        (
            "tests/test_cmdeg.py::TestScaledTailOracle::"
            "test_balls_hold_the_bracket_times_the_exact_factor[30]",
        ),
    ),
    # the Euler-Maclaurin loop that polygamma_fixed and the rung share
    Mutant(
        "Euler-Maclaurin loop: stop taken one term early",
        "specfun.py",
        "            brackets[i] += term\n"
        "            if done(i, v, term, mag):\n"
        "                continue\n",
        "            if done(i, v, term, mag):\n"
        "                continue\n"
        "            brackets[i] += term\n",
        (PINNED_CORES + "[30]",),
    ),
    # the balls that rank min_h in the suite
    Mutant(
        "min_h ball: unit shift dropped",
        "suite.py",
        "(mid + (1 << -x), rad, x)",
        "(mid, rad, x)",
        ("tests/test_acceptance.py::test_min_h_is_ranked_by_balls_of_h[30]",),
    ),
    # the context-free quadrature (laplace)
    Mutant(
        "quadrature: a panel's -z negated exactly",
        "laplace.py",
        "    minus_z = mpf_neg(z, bits, _RN)\n    terms = []",
        "    minus_z = mpf_neg(z)\n    terms = []",
        (PINNED_QUADRATURE + "[50]",),
    ),
    Mutant(
        "quadrature: a majorant's -z negated exactly",
        "laplace.py",
        "mpf_exp(mpf_mul(mpf_neg(z, bits, _RN), low, bits, _RN)",
        "mpf_exp(mpf_mul(mpf_neg(z), low, bits, _RN)",
        (PINNED_QUADRATURE + "[50]",),
    ),
    Mutant(
        "quadrature: expm1 replica at p + 24 bits",
        "laplace.py",
        "wide = bits + 25",
        "wide = bits + 24",
        (
            "tests/test_cores.py::TestContextFreeQuadrature::"
            "test_u_ratio_replica_at_a_double_rounding",
        ),
    ),
    Mutant(
        "quadrature: a panel's mpf_sum as a left fold",
        "laplace.py",
        "mpf_mul(half, mpf_sum(terms, bits, _RN), bits, _RN)",
        "mpf_mul(half, " + LEFT_FOLD + "terms), bits, _RN)",
        (PINNED_QUADRATURE + "[30]",),
    ),
    Mutant(
        "quadrature: the total's mpf_sum as a left fold",
        "laplace.py",
        "total = mpf_sum([p[3] for p in panels], bits, _RN)",
        "total = " + LEFT_FOLD + "[p[3] for p in panels])",
        (PINNED_QUADRATURE + "[30]",),
    ),
    Mutant(
        "quadrature: expm1 replica below u = 1/4 in the h majorant",
        "laplace.py",
        "if mpf_lt(low, _QUARTER):",
        "if False:",
        (
            "tests/test_cores.py::TestContextFreeQuadrature::"
            "test_h_majorant_takes_the_mpf_expm1[1e-30]",
        ),
    ),
)

EQUIVALENT = (
    (
        Mutant(
            "sign rung: widening for h_table's value dropped",
            "laurent.py",
            "rad += (e + p + rad >> bits - 4) + (s_num * (p + rad) >> s_e) + 2",
            "pass",
            (),
        ),
        "the widening covers h_table's error bound at prec, but h_table "
        "refines its value to within 10^-(digits+3) of h^(i), while the "
        "radius without it, about 2^-q E, is still some 2^-(k+5) |h^(i)| "
        "(_sign_width), and the mid's true error is far below its radius at "
        "every point a test reaches, so every ball still holds h_table's value",
    ),
    (
        Mutant(
            "quadrature: an edge's -z negated exactly",
            "laplace.py",
            "minus_z = mpf_neg(z, low_bits, _RN)",
            "minus_z = mpf_neg(z)",
            (),
        ),
        "the edge values only set the first shares through lower, and their "
        "last bits move no panel choice unless a bound lies within about "
        "2^-150 of its share",
    ),
    (
        Mutant(
            "quadrature: Gauss denominator rounded before the division",
            "laplace.py",
            "mpf_div(numerator, _gauss_denominator(rho, order), bits, _RN)",
            "mpf_div(numerator, mpf_mul(_gauss_denominator(rho, order), fone, "
            "bits, _RN), bits, _RN)",
            (),
        ),
        "15 (rho^2 - 1) rho^(2n-2) for rho = 2^j has at most 22 significant bits",
    ),
)


def _source(mutant, src):
    """The text of the mutant's file under src, which must hold its piece
    exactly once."""
    path = os.path.join(src, "cmcheck", mutant.file)
    with open(path) as handle:
        text = handle.read()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: its text occurs {count} times in {mutant.file}")
    return path, text


def _copy(tmp):
    src = os.path.join(tmp, "src")
    shutil.copytree(
        os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
    )
    return src, dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def _imports_the_copy():
    """Whether a process started as the mutants' are imports cmcheck from
    the copy, not from an installed package."""
    with tempfile.TemporaryDirectory() as tmp:
        src, env = _copy(tmp)
        out = subprocess.run(
            [sys.executable, "-c", "import cmcheck; print(cmcheck.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip().startswith(src)


def killed(mutant):
    """True where one of the mutant's tests fails on the mutated copy, False
    where they all pass; any other pytest outcome stops the script."""
    with tempfile.TemporaryDirectory() as tmp:
        src, env = _copy(tmp)
        path, text = _source(mutant, src)
        with open(path, "w") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if run.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}")
    return run.returncode == 1


def main(names):
    chosen = [m for m in MUTANTS if not names or any(n in m.name for n in names)]
    for mutant, _ in EQUIVALENT:
        _source(mutant, os.path.join(ROOT, "src"))
    if not _imports_the_copy():
        raise SystemExit("the tests do not import cmcheck from the copied src/")
    survivors = []
    for mutant in chosen:
        _source(mutant, os.path.join(ROOT, "src"))
        start = time.monotonic()
        ok = killed(mutant)
        print(f"{'killed' if ok else 'SURVIVED'}  {time.monotonic() - start:5.1f} s  {mutant.name}")
        if not ok:
            survivors.append(mutant.name)
    for mutant, reason in EQUIVALENT:
        print(f"equivalent  {mutant.name}: {reason}")
    if survivors:
        raise SystemExit(f"{len(survivors)} mutants survived: {', '.join(survivors)}")


if __name__ == "__main__":
    main(sys.argv[1:])
