"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1]
        [--workloads corpus-release,segment-raw] [--write perfbench/BASELINE.md]

For each workload this makes one run per seed with --trace 0 and one
traced run with the first seed, each in its own process, through
perfbench/run.py with BENCHMARK.json's run_seconds. It prints every metric
by name with its unit: for end-to-end metrics the median, quartiles and
spread (interquartile range over median) across the seeds, next to the
metric's bound; for per-layer metrics the traced run's value. Every run
checks its outputs; the failed-call count is printed per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = quantiles(values, n=4)
    return median(values), q1, q3, (q3 - q1) / median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--write", default=None, help="also write the tables as markdown here")
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"Seeds {seeds.start}..{seeds.stop - 1}, {seconds} s per run, one traced run per workload "
             f"(seed {seeds.start}).", ""]
    worst, worst_setup = 0.0, 0.0
    for workload in args.workloads.split(","):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        traced = run(workload, seeds.start, seconds, 1)
        attempted = sum(r["attempted"] for r in results) + traced["attempted"]
        failed = sum(r["failed"] for r in results) + traced["failed"]
        correct = all(r["correct"] for r in results) and traced["correct"]
        block = [f"### {workload}", "",
                  f"{len(results)} runs, {attempted} calls, {failed} failed, all outputs correct: {correct}", "",
                  "| metric | unit | median | q1 | q3 | spread | bound |", "|---|---|---|---|---|---|---|"]
        for name, m in bounds.items():
            mid, q1, q3, s = spread([r["metrics"][name]["value"] for r in results])
            if name == "setup_s":
                worst_setup = max(worst_setup, s / m["bound"])
            else:
                worst = max(worst, s / m["bound"])
            block.append(f"| {name} | {m['unit']} | {mid:.6g} | {q1:.6g} | {q3:.6g} | {s:.3f} | {m['bound']} |")
        block += ["", "| per-layer metric (traced run) | unit | value |", "|---|---|---|"]
        for name, value in traced["metrics"].items():
            block.append(f"| {name} | {value['unit']} | {value['value']:.6g} |")
        block.append("")
        print("\n".join(block), flush=True)
        lines += block
    lines.append(f"Largest spread as a share of its bound, setup_s aside: {worst:.2f}")
    lines.append(f"Largest setup_s spread as a share of its bound: {worst_setup:.2f}")
    print("\n".join(lines[-2:]))
    if args.write:
        Path(args.write).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
