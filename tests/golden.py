"""The golden reports: fixed CLI commands with their reports.

Each entry of golden_reports.json is one command's exit code and its JSON
report, every elapsed_seconds (suite records one per criterion) masked to
null.  test_golden.py reruns every
command in process and compares its report byte for byte; a change that
means to alter a report rewrites the corpus with

    PYTHONPATH=src python tests/golden.py

and names every changed byte in its description.  The corpus applies to
mpmath's pure-Python backend, on which it was written.
"""

import contextlib
import io
import json
import os
import sys

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")


# the two eval calls of each function of the cli-mix benchmark workload
EVAL_CALLS = (
    ["trigamma", "--t", "0.7"], ["trigamma", "--t", "8"],
    ["polygamma", "--n", "2", "--t", "1.3"], ["polygamma", "--n", "4", "--t", "12"],
    ["bessel-i", "--nu", "0", "--z", "2.5"], ["bessel-i", "--nu", "3", "--z", "30"],
    ["hyp1f2", "--b1", "2", "--b2", "3", "--t", "4"],
    ["hyp1f2", "--b1", "5", "--b2", "6", "--t", "40"],
    ["h", "--t", "0.9"], ["h", "--t", "15"],
    ["hk", "--k", "1", "--z", "1.2"], ["hk", "--k", "4", "--z", "9"],
)

# the kernels' eval calls, on both sides of u = 1/4, where h_kernel changes
# route
KERNEL_CALLS = (
    ["kernel-1f2", "--k", "0", "--t", "0.1"], ["kernel-1f2", "--k", "3", "--t", "40"],
    ["kernel-bessel", "--k", "0", "--t", "0.1"],
    ["kernel-bessel", "--k", "2", "--t", "3.5"],
    ["h-kernel", "--t", "0.1"], ["h-kernel", "--t", "0.25"], ["h-kernel", "--t", "2"],
    ["u-ratio", "--t", "0.1"], ["u-ratio", "--t", "2"],
)

# the quadrature benchmark workload's kinds: rep, index, rel_tol, centre z
QUADRATURE_KINDS = (
    ("f12", "0", "1e-10", "0.5"), ("f12", "1", "1e-10", "1.7"),
    ("f12", "2", "1e-10", "2.9"), ("f12", "3", "1e-10", "4.1"),
    ("bessel", "0", "1e-10", "1.1"), ("bessel", "1", "1e-10", "2.3"),
    ("bessel", "2", "1e-10", "3.5"), ("bessel", "3", "1e-10", "4.7"),
    ("h", "0", "1e-8", "4.9"), ("h-deriv", "1", "1e-8", "0.8"),
    ("h-deriv", "2", "1e-8", "2.0"),
)


# the CI smoke commands that run in under a second and are not listed
# elsewhere in the corpus
SMOKE_CALLS = (
    ["eval", "--fn", "trigamma", "--t", "0.5", "--digits", "1000"],
    ["eval", "--fn", "h", "--t", "0.05", "--digits", "1000"],
    ["eval", "--fn", "hk", "--k", "4", "--z", "0.01", "--digits", "1000"],
    ["eval", "--fn", "hk", "--k", "4", "--z", "0.5", "--digits", "1000"],
    ["eval", "--fn", "hk-scaled-deriv", "--k", "2", "--r", "5", "--n", "6", "--t", "1e4",
     "--digits", "500"],
    ["eval", "--fn", "hk-scaled-deriv", "--k", "0", "--r", "300000", "--n", "1", "--t", "1"],
    ["eval", "--fn", "hk-scaled-deriv", "--k", "0", "--r",
     "1.01570637888381646861029459785159243155983896668030419359183", "--n", "1",
     "--t", "32", "--digits", "100"],
    ["verify-integral", "--rep", "h", "--z", "0.7", "--rel-tol", "1e-120", "--digits", "200"],
    ["verify-cm", "--target", "h", "--digits", "500", "--grid-points", "20"],
    ["inequality", "--which", "trigamma", "--digits", "500", "--grid-points", "20"],
    ["verify-cm", "--target", "hk", "--k", "2", "--digits", "500", "--grid-points", "20"],
    ["verify-cm", "--target", "hk", "--k", "0", "--grid-min", "1e-40", "--grid-points", "5",
     "--digits", "50"],
    ["verify-cm", "--target", "hk", "--k", "0", "--grid-min", "1e-40", "--grid-points", "5",
     "--digits", "30"],
    ["degree", "--k", "2", "--digits", "500", "--grid-points", "24"],
    ["eval", "--fn", "hk", "--k", "0", "--z", "1e-7", "--digits", "30"],
    ["degree", "--k", "1", "--grid-min", "1e-7", "--grid-points", "20", "--digits", "30"],
    ["inequality", "--which", "bessel", "--digits", "30"],
    ["eval", "--fn", "h-deriv", "--i", "1", "--t", "1e30", "--digits", "30"],
    ["eval", "--fn", "h-kernel", "--t", "0.2", "--digits", "1000"],
    ["verify-cm", "--target", "h", "--grid-min", "1e-3", "--grid-max", "1e7",
     "--grid-points", "20", "--digits", "500"],
    ["verify-cm", "--target", "hk", "--k", "2", "--r", "13/4", "--digits", "500",
     "--grid-points", "20"],
    ["eval", "--fn", "hk", "--k", "60000", "--z", "1e-5"],
    ["eval", "--fn", "h-kernel", "--t", "1e400000", "--digits", "30"],
    ["eval", "--fn", "u-ratio", "--t", "1e400000", "--digits", "30"],
)


def commands():
    """Every command of the corpus, each an argv list for cli.main."""
    out = []
    for digits in ("30", "50", "100"):
        for k in range(5):
            for r in (str(k + 1), f"{4 * k + 5}/4"):
                out.append(
                    ["verify-cm", "--target", "hk", "--k", str(k), "--r", r,
                     "--grid-min", "0.0101", "--grid-points", "40", "--digits", digits]
                )
    for r in ("3", "13/4"):
        out.append(
            ["verify-cm", "--target", "hk", "--k", "2", "--r", r,
             "--grid-min", "0.0101", "--grid-points", "20", "--digits", "500"]
        )
    for digits in ("30", "50", "100"):
        out.append(["verify-cm", "--target", "h", "--digits", digits])
    # the exp route's budget exhausted: exit 3 with its record
    out.append(
        ["verify-cm", "--target", "hk", "--k", "0", "--grid-min", "1e-100",
         "--grid-points", "5", "--digits", "50"]
    )
    # the benchmark's cli-mix kinds at their centre points, with no jitter
    integrals = {
        "30": ["--rep", "f12", "--k", "1", "--z", "2"],
        "50": ["--rep", "bessel", "--k", "2", "--z", "3.5"],
        "100": ["--rep", "h-deriv", "--n", "1", "--z", "1"],
    }
    for digits in ("30", "50", "100"):
        for which in ("trigamma", "bessel"):
            out.append(
                ["inequality", "--which", which, "--grid-points", "40", "--digits", digits]
            )
        for flags in EVAL_CALLS:
            out.append(["eval", "--fn"] + flags + ["--digits", digits])
        out.append(["verify-integral"] + integrals[digits] + ["--digits", digits])
        for i, t, form in (("1", "3/2", "A"), ("6", "5/3", "B"), ("12", "9/4", "D")):
            out.append(["fpoly", "--i", i, "--t", t, "--form", form, "--digits", digits])
    for k in range(5):
        out.append(["degree", "--k", str(k), "--digits", "50", "--grid-points", "24"])
    # a bad t, printed to its 23 digits: exit 2 with its record
    out.append(
        ["eval", "--fn", "polygamma", "--n", "1", "--t", "-0.12345678901234567890123",
         "--digits", "50"]
    )
    # h'(1e100000), which three raises cannot settle: exit 3 with its record
    out.append(["eval", "--fn", "h-deriv", "--i", "1", "--t", "1e100000", "--digits", "30"])
    for digits in ("30", "50", "100"):
        out.append(["suite", "--digits", digits])
    # the quadrature benchmark workload's kinds at their centre points
    for rep, index, tol, z in QUADRATURE_KINDS:
        flags = {"h": [], "h-deriv": ["--n", index]}.get(rep, ["--k", index])
        out.append(
            ["verify-integral", "--rep", rep] + flags
            + ["--z", z, "--rel-tol", tol, "--digits", "50"]
        )
    # at z = 0.05 the first panels lie below u = 1/4, where h_kernel adds
    # the Bernoulli tail
    out.append(
        ["verify-integral", "--rep", "h-deriv", "--n", "2", "--z", "0.05", "--digits", "100"]
    )
    for digits in ("30", "50", "100"):
        for flags in KERNEL_CALLS:
            out.append(["eval", "--fn"] + flags + ["--digits", digits])
    # a negative u: exit 2 with its record
    out.append(["eval", "--fn", "h-kernel", "--t", "-1"])
    # series whose ratio test cannot pass within the budget: exit 3 with
    # their records, hyp1f2's for h_kernel from u = 1/4 on
    out.append(["eval", "--fn", "h-kernel", "--t", "1e400000"])
    out.append(["eval", "--fn", "kernel-bessel", "--k", "0", "--t", "1e400000"])
    # the h and trigamma scans on wide grids, out to where h^(i) for i >= 1
    # cancels about 21 digits and h - 1 about 21
    for digits in ("30", "50", "100"):
        out.append(
            ["verify-cm", "--target", "h", "--grid-min", "1e-3", "--grid-max", "1e7",
             "--grid-points", "30", "--digits", digits]
        )
        out.append(
            ["inequality", "--which", "trigamma", "--grid-min", "1e-3", "--grid-max", "1e5",
             "--grid-points", "30", "--digits", digits]
        )
    out.extend(list(argv) for argv in SMOKE_CALLS)
    return out


def _masked(value):
    """value with every elapsed_seconds, at any depth, set to None."""
    if isinstance(value, dict):
        return {
            key: None if key == "elapsed_seconds" else _masked(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_masked(item) for item in value]
    return value


def run(argv):
    """(exit code, report) of cli.main(argv) in process, every
    elapsed_seconds masked to None."""
    from cmcheck.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, _masked(json.loads(out.getvalue()))


def render(corpus):
    """The corpus file's text."""
    return json.dumps(corpus, indent=1) + "\n"


def generate():
    """{command line: {"exit": code, "report": report}} over commands()."""
    corpus = {}
    for argv in commands():
        code, report = run(argv)
        corpus[" ".join(argv)] = {"exit": code, "report": report}
    return corpus


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(CORPUS), os.pardir, "src"))
    with open(CORPUS, "w") as handle:
        handle.write(render(generate()))
