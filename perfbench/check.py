"""Check the benchmark itself: traced counts repeat, and what tracing costs.

    python3 perfbench/check.py --workload degree|quadrature|cli-mix --seed N

Runs run.py twice with --trace 1 and once with --trace 0 on one seed.  Exits
1 if the two traced runs differ in any count (calls, evaluations,
bisections, nodes, scan points, report bytes, spans) or in the hash of the
inputs they ran.  It also prints the tracing overhead: the traced against the
untraced wall time of the rounds both runs completed.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNT_UNITS = ("count", "bytes")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    inputs = next(json.loads(line)["inputs"] for line in lines if '"inputs"' in line)
    return inputs, json.loads(lines[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("degree", "quadrature", "cli-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    (in_a, a), (in_b, b) = (run(args.workload, args.seed, args.seconds, 1) for _ in range(2))
    counts = sorted(k for k, v in a.items() if v["unit"] in COUNT_UNITS)
    differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
    if in_a["sha256"] != in_b["sha256"]:
        differ.append("inputs sha256")
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(counts) - len(differ)} of {len(counts)} counts repeat")

    in_u, _ = run(args.workload, args.seed, args.seconds, 0)
    n = min(len(in_a["round_wall_s"]), len(in_u["round_wall_s"]))
    traced, wall = sum(in_a["round_wall_s"][:n]), sum(in_u["round_wall_s"][:n])
    print(f"first {n} rounds: untraced {wall:.3f} s, traced {traced:.3f} s, "
          f"overhead {traced / wall - 1:+.1%}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
