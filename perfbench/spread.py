"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--first-seed 0] \
        [--workloads walk,chains,corpus] [--out runs.json] [--against runs.json]

Runs `run.py` once per seed and workload, interleaving the workloads seed
by seed so that drift in host speed reaches all of them alike.  For every
workload and end-to-end metric it prints the median over the seeds and the
quartile spread (Q3 - Q1) / median, from `statistics.quantiles(n=4)`, next
to the metric's bound in BENCHMARK.json.  With `--against`, it also prints
how far each median moved from a previous `--out` file, as a share of that
file's median, signed so that positive means worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, bench["run_seconds"])
            runs[workload].append(result)
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(runs) + "\n")
    before = json.loads(Path(args.against).read_text()) if args.against else {}

    worst = 0.0
    for workload in workloads:
        print(f"{workload}:")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            line = f"  {name:16s} median {med:12.5f}  spread {spread:6.3f}  bound {metric['bound']}"
            if name != "setup_s":
                worst = max(worst, spread / metric["bound"])
            if workload in before:
                old = statistics.median(r["metrics"][name]["value"] for r in before[workload])
                moved = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                line += f"  worse by {moved:+.3f}"
            print(line)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
