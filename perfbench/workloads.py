"""The benchmark's workloads: seeded inputs, the calls into cmcheck, answer checks.

A workload runs in rounds.  Every round holds the same call kinds, each
kind a fixed call with fixed cost.  The seed and the round number pick the
order of the calls and a small jitter of their real-valued arguments (below
1% relative), so no two rounds repeat a call exactly and a cross-call result
cache cannot make a later round cheaper, while the cost of a kind hardly
depends on the seed.  Round r of seed s depends only on (workload, s, r).
Every verdict is judged against the paper's answer by a route that does not
go through cmcheck.
"""

import json
import os
import random
from collections import namedtuple
from fractions import Fraction

from mpmath import mp

# calls go through the module attributes, so the traced run sees them
from cmcheck import cli, cmdeg, laplace
from cmcheck.cmdeg import LogGrid
from cmcheck.specfun import WorkingPrecision

DIGITS = 50
PREC = WorkingPrecision(DIGITS)
DEGREE_TOL = Fraction(1, 32)
DEGREE_POINTS = 24
CLI_DIGITS = (30, 50, 100)
SCAN_POINTS = "40"

# verdicts the program is known to get wrong, (subcommand, --which, --digits)
# -> the exit code it gives instead of the paper's answer; they still count
# as failed.  The Bessel margin at 30 digits (+5.4e-19) lies under the
# absolute noise floor 1e-15 although it was computed to ~45 digits.
KNOWN_DEFECTS = {("inequality", "bessel", "30"): 1}

Verdict = namedtuple("Verdict", "status report_bytes")


def _rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


def _jitter(rng, center):
    """center, raised by a seeded 0.01% to 0.99%, as a short decimal string."""
    return f"{center * (1 + rng.randint(1, 99) / 10000):.6g}"


class Degree:
    """One bracket per k = 0..4 per round, at 50 digits, in seeded order."""

    name = "degree"
    traced_rounds = 2

    def inputs(self, seed, r):
        g = _rng(self.name, seed, r)
        out = [{"kind": f"k{k}", "k": k, "grid_min": _jitter(g, 1e-2)} for k in range(5)]
        g.shuffle(out)
        return out

    def warm_up(self, scratch):
        cmdeg.estimate_cm_degree(0, tol=DEGREE_TOL, grid=LogGrid(1e-2, 1e6, 2), prec=PREC)

    def call(self, inp, scratch):
        grid = LogGrid(inp["grid_min"], 1e6, DEGREE_POINTS)
        return cmdeg.estimate_cm_degree(
            inp["k"], tol=DEGREE_TOL, grid=grid, max_order=6, prec=PREC
        )

    def judge(self, inp, est, scratch):
        k = inp["k"]
        with PREC.workdps():
            ok = est.r_lo <= k + 1 <= est.r_hi and est.width <= mp.mpf(1) / 32
        return Verdict("ok" if ok else "wrong", 0)


class Quadrature:
    """Each representation check of the battery once per round.

    Each check has its own z, spread over [0.5, 5], because a check's cost
    changes up to 2x with z; the seed only jitters z.
    """

    name = "quadrature"
    traced_rounds = 2
    KINDS = (  # rep, index, rel_tol, z
        ("f12", 0, "1e-10", 0.5), ("f12", 1, "1e-10", 1.7),
        ("f12", 2, "1e-10", 2.9), ("f12", 3, "1e-10", 4.1),
        ("bessel", 0, "1e-10", 1.1), ("bessel", 1, "1e-10", 2.3),
        ("bessel", 2, "1e-10", 3.5), ("bessel", 3, "1e-10", 4.7),
        ("h", 0, "1e-8", 4.9), ("h_deriv", 1, "1e-8", 0.8), ("h_deriv", 2, "1e-8", 2.0),
    )

    def inputs(self, seed, r):
        g = _rng(self.name, seed, r)
        out = [
            {"kind": f"{rep}{index}", "rep": rep, "index": index, "rel_tol": tol,
             "z": _jitter(g, z)}
            for rep, index, tol, z in self.KINDS
        ]
        g.shuffle(out)
        return out

    def warm_up(self, scratch):
        laplace.verify_representation("h", 0, z="5", rel_tol="1e-3", prec=PREC)

    def call(self, inp, scratch):
        return laplace.verify_representation(
            inp["rep"], inp["index"], z=inp["z"], rel_tol=inp["rel_tol"], prec=PREC
        )

    def judge(self, inp, check, scratch):
        ok = check.passed and check.rel_err <= check.tol
        return Verdict("ok" if ok else "wrong", 0)


def _fpoly_reference(i, t):
    """f_i(t) from its factored display, over the rationals."""
    u = t + 1
    return (
        6 * (i + 1) * t * u * (u ** (i + 2) + t ** (i + 2))
        - 12 * t * t * u * u * (u ** (i + 1) - t ** (i + 1))
        - (i + 1) * (i + 2) * (u ** (i + 3) - t ** (i + 3))
    )


def _hk_reference(k, z):
    return mp.exp(1 / z) - mp.fsum(z ** -m / mp.factorial(m) for m in range(k + 1))


# eval --fn -> (flags of its two calls per digits level, with the real-valued
# argument last and jittered, and its value by mpmath's own functions)
EVAL_CASES = {
    "trigamma": (
        (["--t", 0.7], ["--t", 8.0]),
        lambda f: mp.psi(1, mp.mpf(f["--t"])),
    ),
    "polygamma": (
        (["--n", "2", "--t", 1.3], ["--n", "4", "--t", 12.0]),
        lambda f: mp.psi(int(f["--n"]), mp.mpf(f["--t"])),
    ),
    "bessel-i": (
        (["--nu", "0", "--z", 2.5], ["--nu", "3", "--z", 30.0]),
        lambda f: mp.besseli(int(f["--nu"]), mp.mpf(f["--z"])),
    ),
    "hyp1f2": (
        (["--b1", "2", "--b2", "3", "--t", 4.0], ["--b1", "5", "--b2", "6", "--t", 40.0]),
        lambda f: mp.hyp1f2(1, int(f["--b1"]), int(f["--b2"]), mp.mpf(f["--t"])),
    ),
    "h": (
        (["--t", 0.9], ["--t", 15.0]),
        lambda f: mp.exp(1 / mp.mpf(f["--t"])) - mp.psi(1, mp.mpf(f["--t"])),
    ),
    "hk": (
        (["--k", "1", "--z", 1.2], ["--k", "4", "--z", 9.0]),
        lambda f: _hk_reference(int(f["--k"]), mp.mpf(f["--z"])),
    ),
}

# per digits level: k of the hk scans (r = k+1 passes, r = k+5/4 fails) and
# the verify-integral check with its z
CLI_LEVELS = {
    30: (0, ["--rep", "f12", "--k", "1"], 2.0),
    50: (2, ["--rep", "bessel", "--k", "2"], 3.5),
    100: (4, ["--rep", "h-deriv", "--n", "1"], 1.0),
}


class CliMix:
    """Every subcommand kind at each of 30, 50 and 100 digits per round.

    Per digits level: six scans or quadratures taking 0.02 to 0.5 s, twelve
    point evaluations (two of each eval function) and three exact fpoly
    calls taking a few ms, so the median verdict is a short call and the
    long ones set the tail.  The scans run on 40 grid points instead of 200,
    which keeps a round near 3.5 s; the known Bessel defect at 30 digits
    shows on that grid as on the default one.
    """

    name = "cli-mix"
    traced_rounds = 2

    def inputs(self, seed, r):
        g = _rng(self.name, seed, r)
        out = []
        for digits, (k, integral, z) in CLI_LEVELS.items():
            scan = ["--grid-points", SCAN_POINTS, "--grid-min"]
            calls = [
                ("verify-cm-h", ["verify-cm", "--target", "h"] + scan + [_jitter(g, 0.05)], 0),
                ("verify-cm-hk-pass", ["verify-cm", "--target", "hk", "--k", str(k),
                                       "--r", str(k + 1)] + scan + [_jitter(g, 1e-2)], 0),
                ("verify-cm-hk-fail", ["verify-cm", "--target", "hk", "--k", str(k),
                                       "--r", f"{4 * k + 5}/4"] + scan + [_jitter(g, 1e-2)], 1),
                ("inequality-trigamma", ["inequality", "--which", "trigamma",
                                         "--grid-points", SCAN_POINTS], 0),
                ("inequality-bessel", ["inequality", "--which", "bessel",
                                       "--grid-points", SCAN_POINTS], 0),
                ("verify-integral", ["verify-integral"] + integral + ["--z", _jitter(g, z)], 0),
            ]
            for fn, (slots, _) in EVAL_CASES.items():
                for slot, flags in enumerate(slots):
                    flags = flags[:-1] + [_jitter(g, flags[-1])]
                    calls.append((f"eval-{fn}-{slot}", ["eval", "--fn", fn] + flags, 0))
            for slot, i in enumerate((1, 6, 12)):
                t = f"{g.randint(1, 9)}/{g.randint(1, 4)}"
                argv = ["fpoly", "--i", str(i), "--t", t, "--form", g.choice("ABCD")]
                calls.append((f"fpoly-{slot}", argv, 0))
            out += [
                {"kind": f"{kind}@{digits}", "argv": argv + ["--digits", str(digits)],
                 "expect": expect}
                for kind, argv, expect in calls
            ]
        g.shuffle(out)
        return out

    def warm_up(self, scratch):
        out = ["--out", os.path.join(scratch, "warm-up.json")]
        for digits in CLI_DIGITS:
            common = ["--digits", str(digits)] + out
            for argv in (
                ["eval", "--fn", "h", "--t", "1"],
                ["fpoly", "--i", "1", "--t", "1"],
                ["verify-cm", "--target", "h", "--grid-points", "2", "--max-order", "1"],
                ["verify-cm", "--target", "hk", "--k", "0", "--grid-points", "2"],
                ["inequality", "--which", "bessel", "--grid-points", "2"],
                ["verify-integral", "--rep", "bessel", "--z", "5", "--rel-tol", "1e-3"],
            ):
                cli.main(argv + common)

    def call(self, inp, scratch):
        return cli.main(inp["argv"] + ["--out", os.path.join(scratch, "report.json")])

    def judge(self, inp, rc, scratch):
        path = os.path.join(scratch, "report.json")
        report, report_bytes = {}, 0
        if os.path.exists(path):
            with open(path) as handle:
                text = handle.read()
            os.remove(path)
            report = json.loads(text)
            # the timing field is the one part of a report that varies between runs
            report_bytes = len(text.encode()) - len(json.dumps(report["elapsed_seconds"]))
        argv = inp["argv"]
        flags = dict(zip(argv[1::2], argv[2::2]))
        if rc != inp["expect"]:
            known = KNOWN_DEFECTS.get((argv[0], flags.get("--which"), flags["--digits"]))
            return Verdict("known-defect" if rc == known else "wrong", report_bytes)
        if argv[0] == "eval":
            digits = int(flags["--digits"])
            with mp.workdps(digits + 20):
                got = mp.mpf(report["results"][0]["value"])
                want = EVAL_CASES[flags["--fn"]][1](flags)
                ok = abs(got - want) <= abs(want) * mp.mpf(10) ** (3 - digits)
            return Verdict("ok" if ok else "wrong", report_bytes)
        if argv[0] == "fpoly":
            got = Fraction(report["results"][0]["value"])
            want = _fpoly_reference(int(flags["--i"]), Fraction(flags["--t"]))
            return Verdict("ok" if got == want else "wrong", report_bytes)
        return Verdict("ok", report_bytes)


WORKLOADS = {w.name: w for w in (Degree(), Quadrature(), CliMix())}
