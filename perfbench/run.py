"""lst20tools benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-release --seed 1 --seconds 15 --trace 0

Workloads: corpus-release, convert-roundtrip, segment-raw, frames-lexicon
(see perfbench/DESIGN.md). The run generates its inputs from the seed under
.perfbench_work/, measures set-up time in fresh processes, runs the calls in
a fresh single-threaded worker process for --seconds, checks every output,
measures the heap peak of the largest calls in one more fresh process and
prints each metric with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. Details
and spans are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402

#: Set-up probes made before and after the worker, so that they spread over
#: the run. One more probe first warms the bytecode cache and is not counted.
SETUP_PROBES = 8
#: Calls, the largest of the workload's inputs, whose heap peak is measured.
MEMORY_CALLS = 8


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(plan: dict, work: Path, probes: int) -> list[float]:
    """Wall times of fresh processes that get one call of the workload ready,
    each scaled to the reference CPU speed by the probe's own calibration."""
    argv = plan["calls"][0]["steps"][0]["argv"]
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *argv]
    times = []
    for _ in range(probes):
        start = perf_counter()
        proc = subprocess.run(cmd, env=_child_env(), check=True, timeout=60, cwd=work,
                              capture_output=True, text=True)
        elapsed = perf_counter() - start
        times.append(elapsed * REFERENCE_S / float(proc.stdout))
    return times


def peak_heap(plan: dict, work: Path) -> dict:
    """Heap peak of the workload's largest calls, in a fresh process that
    holds nothing of the harness but the argument lists (memory_probe.py)."""
    largest = sorted(plan["calls"], key=lambda call: -call["tokens"])[:MEMORY_CALLS]
    path = work / "memory_calls.json"
    path.write_text(json.dumps({
        "warmup": [step["argv"] for step in plan["calls"][0]["steps"]],
        "measure": [[step["argv"] for step in call["steps"]] for call in largest],
    }), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "memory_probe.py"), str(path)],
                          env=_child_env(), check=True, timeout=150, cwd=work,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def line_counts() -> dict[str, int]:
    counts = {}
    for path in sorted((ROOT / "src" / "lst20tools").glob("*.py")):
        with open(path, encoding="utf-8") as f:
            counts[f"{path.stem.strip('_')}.lines"] = sum(1 for _ in f)
    counts["src.lines"] = sum(counts.values())
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lst20tools" / "cli.py").is_file():
        print(f"perfbench: no lst20tools sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        started = perf_counter()
        plan = gen.build(args.workload, args.seed, work)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        generate_s = perf_counter() - started
        setup = [] if args.trace else setup_seconds(plan, work, SETUP_PROBES + 1)[1:]
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(args.seconds),
             str(args.trace), str(out_dir / f"spans-{tag}.jsonl")],
            env=_child_env(), capture_output=True, text=True, timeout=150, cwd=work,
        )
        if not args.trace and proc.returncode == 0:
            setup += setup_seconds(plan, work, SETUP_PROBES)
            memory = peak_heap(plan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result.pop("metrics")
    if args.trace:
        metrics.update(line_counts())
    else:
        metrics["setup_s"] = median(setup)
        metrics["peak_heap_mb"] = memory["peak_heap_mb"]
        result["setup_s_samples"] = setup
        result["peak_heap_max_mb"] = memory["peak_heap_max_mb"]
        result["probe_peak_rss_mb"] = memory["peak_rss_mb"]
    result.update(workload=args.workload, seed=args.seed, generate_s=generate_s,
                  failed_share=result["failed"] / result["attempted"], lines=line_counts())
    (out_dir / f"result-{tag}.json").write_text(json.dumps({**result, "metrics": metrics}, indent=1))

    for m in reported:
        print(f"{m['name']:42s} {metrics[m['name']]:>16.6g} {m['unit']}")
    for key in ("attempted", "failed", "failed_share", "outputs_sha256", "inputs", "repeats",
                "peak_heap_max_mb", "probe_peak_rss_mb", "worker_peak_rss_mb",
                "tail_percentile", "calls_beyond_tail", "median_slowdown", "raw"):
        if key in result:
            print(f"{key:42s} {result[key]}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
