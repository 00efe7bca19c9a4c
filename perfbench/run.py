"""Run one cmcheck benchmark workload and print its metrics.

    python3 perfbench/run.py --workload degree|quadrature|cli-mix \
        --seed N --seconds S --trace 0|1

A single caller in one process and thread runs the workload's seeded rounds
closed-loop, each call after the previous one returned, and judges every
verdict.  With --trace 0 it runs whole rounds until the next one would end
after S seconds (at least one) and reports the end-to-end metrics, built
from the fastest call of each call kind and measured in units of a fixed
reference computation timed beside them; with --trace 1 it runs the
workload's fixed number of rounds with every layer wrapped and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it carry the machine facts, the hashes of the inputs run,
each kind's fastest call and a readable table.  Run from the repository
root; it imports cmcheck from src/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
REFERENCE = "reference"
REFERENCE_PARTS = 4
# the reference computation's time on a quiet 2-core Xeon sandbox; setup_s
# is reported in seconds at that speed
REFERENCE_S = 0.135
END_TO_END_UNITS = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("degree", "quadrature", "cli-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print its seconds and "
                             "the reference computation's")
    return parser.parse_args()


def setup(workload, scratch):
    """Import cmcheck, then make one warm-up call per call kind.

    Returns the workload, the seconds this took and the seconds the
    reference computation took right after it.
    """
    start = time.perf_counter()
    import cmcheck.cli  # noqa: F401  (the import is part of what is timed)
    import workloads

    wl = workloads.WORKLOADS[workload]
    wl.warm_up(scratch)
    seconds = time.perf_counter() - start
    start = time.perf_counter()
    reference()
    return wl, seconds, time.perf_counter() - start


def setup_in_child(workload):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, ref = proc.stdout.split()[-2:]
    return float(seconds), float(ref)


def machine_facts(loadavg):
    import mpmath

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu": cpu,
        "loadavg_at_start": [round(x, 2) for x in loadavg],
    }


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def reference(parts=range(REFERENCE_PARTS)):
    """A fixed mpmath computation that does not touch cmcheck, about 0.14 s.

    The host's neighbours change its speed by up to 2x for minutes at a
    time, and no call of a run escapes that.  Timed beside the workload,
    this computation slows with it, so the ratio of the workload's times to
    this one's cancels much of the host's drift.  Its mpf series resemble
    the ones cmcheck evaluates, so they slow alike.  It comes in parts of
    about 35 ms, which a run places between its calls and times as it
    times the call kinds, so both see the same spread of the host's load.
    """
    from mpmath import mp

    with mp.workdps(50):
        total = mp.mpf(0)
        for part in parts:
            for j in range(8 + 6 * part, 14 + 6 * part):
                for i in range(1, 300):
                    x = mp.mpf(i) / j
                    total += mp.exp(-x) * x ** 3 / (1 + x)
    return total


def run_rounds(wl, seed, scratch, *, seconds=None, rounds=None, tracer=None):
    """Run rounds closed-loop; returns per-round and per-kind times and verdicts.

    An untraced run also times each part of the reference computation once
    a round, at seeded places between the calls.
    """
    statuses, round_wall, round_hashes = [], [], []
    kind_wall, kind_cpu = defaultdict(list), defaultdict(list)
    start = time.perf_counter()
    r = 0
    while True:
        inputs = wl.inputs(seed, r)
        round_hashes.append(digest(inputs)[:16])
        schedule = list(inputs)
        if tracer is None:
            places = random.Random(f"reference:{seed}:{r}")
            for part in range(REFERENCE_PARTS):
                schedule.insert(places.randint(0, len(schedule)), part)
        wall = 0.0
        for inp in schedule:
            if isinstance(inp, int):
                t0, c0 = time.perf_counter(), time.process_time()
                reference([inp])
                kind_wall[f"{REFERENCE}{inp}"].append(time.perf_counter() - t0)
                kind_cpu[f"{REFERENCE}{inp}"].append(time.process_time() - c0)
                continue
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = wl.call(inp, scratch)
            except (Exception, SystemExit):  # a failed verdict, not a failed run
                traceback.print_exc()
                out = None
            lat, used = time.perf_counter() - t0, time.process_time() - c0
            verdict = wl.judge(inp, out, scratch) if out is not None else None
            statuses.append(verdict.status if verdict else "error")
            if tracer is not None and verdict is not None:
                tracer.counts["cli.report_bytes"] += verdict.report_bytes
            kind_wall[inp["kind"]].append(lat)
            kind_cpu[inp["kind"]].append(used)
            wall += lat
        round_wall.append(wall)
        r += 1
        elapsed = time.perf_counter() - start
        if rounds is not None and r >= rounds:
            break
        if rounds is None and elapsed + elapsed / r > seconds:
            break
    return statuses, round_wall, round_hashes, kind_wall, kind_cpu


def main():
    args = parse_args()
    loadavg = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "cmcheck", "__init__.py")):
        print(f"cmcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        wl, setup_main, setup_ref = setup(args.workload, scratch)
        if args.setup_only:
            print(f"{setup_main:.6f} {setup_ref:.6f}")
            return 0
        facts = machine_facts(loadavg)
        tracer = None
        if args.trace:
            import cmcheck
            import tracing

            tracer = tracing.Tracer()
            undo = tracing.install(tracer, cmcheck)
            try:
                result = run_rounds(wl, args.seed, scratch, rounds=wl.traced_rounds,
                                    tracer=tracer)
            finally:
                tracing.uninstall(undo)
        else:
            setup_samples = [(setup_main, setup_ref)] + [
                setup_in_child(args.workload) for _ in range(SETUP_SAMPLES - 1)
            ]
            result = run_rounds(wl, args.seed, scratch, seconds=args.seconds)
    statuses, round_wall, round_hashes, kind_wall, kind_cpu = result
    # each kind's fastest call of the run: the host's load only ever adds time
    floor_wall = {kind: min(lats) for kind, lats in kind_wall.items()}
    floor_cpu = {kind: min(used) for kind, used in kind_cpu.items()}
    parts = [f"{REFERENCE}{part}" for part in range(REFERENCE_PARTS)]
    ref_wall = sum(floor_wall.pop(part, 0.0) for part in parts)
    ref_cpu = sum(floor_cpu.pop(part, 0.0) for part in parts)
    latencies = [lat for kind, lats in kind_wall.items() if kind not in parts for lat in lats]

    attempted = len(statuses)
    failed = sum(s != "ok" for s in statuses)
    known = statuses.count("known-defect")
    print(json.dumps({"machine": facts}))
    print(json.dumps({"inputs": {
        "workload": args.workload, "seed": args.seed, "rounds": len(round_wall),
        "verdicts": attempted, "sha256": digest(round_hashes),
        "round_sha256": round_hashes, "round_wall_s": round_wall,
    }}))
    print(json.dumps({"fastest_call_s": floor_wall}))

    if tracer is not None:
        metrics = tracer.metrics(sum(floor_wall.values()), sum(round_wall))
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.csv"))
    else:
        wall_s = sum(floor_wall.values())
        cpu_s = sum(floor_cpu.values())
        verdict_p50_s = statistics.median(floor_wall.values())
        metrics = {
            "wall_ref": wall_s / ref_wall,
            "cpu_ref": cpu_s / ref_cpu,
            "setup_s": statistics.median(t / ref for t, ref in setup_samples) * REFERENCE_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    shown = dict(metrics)
    shown["fail_ratio"] = (failed / attempted, f"of {attempted}")
    if known:
        shown["known_defect_verdicts"] = (known, "count")
    if tracer is None:
        shown["wall_s"] = (wall_s, "s")
        shown["cpu_s"] = (cpu_s, "s")
        shown["verdict_p50_s"] = (verdict_p50_s, "s")
        shown["verdict_p50_ref"] = (verdict_p50_s / ref_wall, "ref")
        shown["reference_s"] = (ref_wall, "s")
        shown["setup_measured_s"] = (statistics.median(t for t, _ in setup_samples), "s")
        shown["round_wall_median_s"] = (statistics.median(round_wall), "s")
        if attempted >= 100:
            shown["verdict_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    for name, (value, unit) in shown.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")

    print(json.dumps({
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
