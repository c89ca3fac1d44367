"""Runs one workload's CLI calls in a fresh, single-threaded process.

Usage: worker.py PLAN_JSON SECONDS TRACE(0|1) SPANS_PATH

Calls go through ``lst20tools.cli.main(argv)`` in a closed loop: the next
call starts when the previous one has returned and its output has been
checked. The plan's calls are cycled until SECONDS have passed, so each
input is called several times; only the ``main`` calls are timed. A call
that raises, exits with an unexpected code, writes to stderr or fails its
output check counts as failed; the run goes on. Prints one JSON object.

Every timed interval is scaled to a reference CPU speed measured next to it
(see calibrate.py), and the call metrics use each input's lower-quartile
scaled time over its repeats.

With TRACE=1 the loop runs for 40% of SECONDS untraced, then the same calls
again with spans around each layer; the difference is the tracing overhead.
The traced run also times the label parsers, measures parsed-document
memory and runs the two super-linear probes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import sys
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from calibrate import REFERENCE_S, calibration_s  # noqa: E402
from spans import Tracer  # noqa: E402


def scaled_time(fn) -> float:
    """Seconds ``fn()`` takes, scaled to the reference CPU speed."""
    before = calibration_s()
    start = perf_counter()
    fn()
    elapsed = perf_counter() - start
    return elapsed * REFERENCE_S / min(before, calibration_s())


def _import_package():
    src = (HERE.parent / "src").resolve()
    import lst20tools
    import lst20tools.cli

    if not Path(lst20tools.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lst20tools imported from {lst20tools.__file__}, not from {src}")
    return lst20tools


class Runner:
    def __init__(self, lst, plan: dict):
        self.lst = lst
        self.calls = plan["calls"]
        self.oracle = checks.FrameOracle(plan["frames"]) if "frames" in plan else None
        self.digest = hashlib.sha256()
        self.problems: list[str] = []
        self.output_bytes = 0
        self.read_bytes = 0

    def _check(self, output: bytes, check: dict) -> list[str]:
        kind = check["kind"]
        if kind == "issues":
            return checks.check_issues(output, check)
        if kind == "stats":
            return checks.check_stats(output, check)
        if kind == "same_bytes":
            return checks.check_same_bytes(output, check)
        if kind == "segment":
            return checks.check_segment(output, check)
        if kind == "frames":
            return checks.check_frames(output, check, self.oracle)
        raise ValueError(f"unknown check {kind!r}")

    def call(self, index: int) -> tuple[float, float, bool]:
        """Run call ``index`` (cycling); returns (timed seconds, the factor
        that scales them to the reference speed, failed)."""
        call = self.calls[index % len(self.calls)]
        elapsed = 0.0
        problems: list[str] = []
        outputs = []
        before = calibration_s()
        for step in call["steps"]:
            argv = step["argv"]
            out = Path(argv[argv.index("-o") + 1])
            out.unlink(missing_ok=True)
            err = io.StringIO()
            try:
                with redirect_stderr(err):
                    start = perf_counter()
                    code = self.lst.cli.main(argv)
                    elapsed += perf_counter() - start
            except (Exception, SystemExit) as exc:  # a failed call must not end the run
                problems.append(f"{argv[0]} raised {exc!r}")
                break
            if code != step["exit"]:
                problems.append(f"{argv[0]} exited {code}, expected {step['exit']}")
            if err.getvalue():
                problems.append(f"{argv[0]} wrote to stderr: {err.getvalue()[:200]!r}")
            try:
                output = out.read_bytes()
            except OSError as exc:
                problems.append(f"{argv[0]} wrote no output: {exc}")
                break
            self.output_bytes += len(output)
            self.read_bytes += step["read_bytes"] or len(Path(argv[argv.index("-o") - 1]).read_bytes())
            if index < len(self.calls):
                self.digest.update(hashlib.sha256(output).digest())
            if step["check"] is not None:
                outputs.append((output, step["check"]))
        scale = REFERENCE_S / min(before, calibration_s())
        for output, check in outputs:
            problems += self._check(output, check)
        if problems and len(self.problems) < 10:
            self.problems.append(f"call {index % len(self.calls)}: " + "; ".join(problems[:3])[:400])
        return elapsed, scale, bool(problems)

    def loop(self, seconds: float | None = None, count: int | None = None, tracer=None) -> dict:
        times, scales, failed = [], [], 0
        start = perf_counter()
        index = 0
        while True:
            if count is not None and index >= count:
                break
            if count is None and index and perf_counter() - start >= seconds:
                break
            if tracer is not None:
                tracer.call_id = index
            elapsed, scale, bad = self.call(index)
            times.append(elapsed)
            scales.append(scale)
            failed += bad
            index += 1
        return {"times": times, "scales": scales, "failed": failed}


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _per_input(times: list[float], n_inputs: int) -> dict[int, float]:
    """Each input's lower-quartile time over its repeats.

    Calibration removes most of a slowdown caused by other tenants, not all
    of it; the lower quartile leans on the repeats that met the least of
    it without trusting the single fastest.
    """
    repeats: dict[int, list[float]] = {}
    for index, elapsed in enumerate(times):
        repeats.setdefault(index % n_inputs, []).append(elapsed)
    return {key: _percentile(values, 25) for key, values in repeats.items()}


def end_to_end(run: dict, calls: list[dict], tail_pct: float) -> dict:
    """Metrics over the inputs called so far, each at its per-input time.

    The unscaled figures are returned too, under ``raw``."""

    def summary(times: list[float]) -> dict:
        per_input = _per_input(times, len(calls))
        values = list(per_input.values())
        return {
            "tokens_per_s": sum(calls[key]["tokens"] for key in per_input) / sum(values),
            "call_ms_p50": median(values) * 1e3,
            "call_ms_tail": _percentile(values, tail_pct) * 1e3,
            "call_ms_p25": _percentile(values, 25) * 1e3,
            "call_ms_p75": _percentile(values, 75) * 1e3,
        }

    scaled = summary([t * s for t, s in zip(run["times"], run["scales"])])
    inputs = min(len(run["times"]), len(calls))
    return {
        "metrics": {
            "tokens_per_s": scaled.pop("tokens_per_s"),
            "call_ms_p50": scaled.pop("call_ms_p50"),
            "call_ms_tail": scaled.pop("call_ms_tail"),
        },
        **scaled,
        "raw": summary(run["times"]),
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "median_slowdown": 1 / median(run["scales"]),
        "inputs": inputs,
        "repeats": len(run["times"]) / inputs,
        "tail_percentile": tail_pct,
        "calls_beyond_tail": inputs - math.ceil(tail_pct / 100 * inputs),
    }


# --- traced run -------------------------------------------------------------


def _sample_rows(paths: list[str]) -> list[list[str]]:
    rows = []
    for path in paths:
        for sentence in checks.read_rows(Path(path).read_text(encoding="utf-8")):
            rows += [r for r in sentence if len(r) == 4 and r[1] in gen.POS_WEIGHTS]
    return rows


def _ns_per_call(fn, values: list[str]) -> float:
    def parse_all():
        for value in values:
            fn(value)

    return median(scaled_time(parse_all) for _ in range(5)) / len(values) * 1e9


def schema_metrics(lst, paths: list[str]) -> dict:
    rows = _sample_rows(paths)
    schema = lst.schema
    labels = {
        "parse_pos_tag": [r[1] for r in rows],
        "parse_ne_label": [r[2] for r in rows],
        "parse_clause_label": [r[3] for r in rows],
    }
    metrics = {f"schema.{fn}.ns_per_call": _ns_per_call(getattr(schema, fn), values)
               for fn, values in labels.items()}
    parsed = [schema.parse_ne_label(v) for v in labels["parse_ne_label"]]
    metrics["schema.ne_label_objects"] = len({id(label) for label in parsed})
    return metrics


def doc_bytes_per_token(lst, paths: list[str]) -> float:
    texts = [Path(p).read_text(encoding="utf-8") for p in paths]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        docs = [lst.format.read_columnar(text, "sample", errors=[]) for text in texts]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / sum(len(s.tokens) for d in docs for s in d.sentences)


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _best_time(fn, repeats: int) -> float:
    return min(scaled_time(fn) for _ in range(repeats))


SEGMENT_PROBE_SIZES = (2000, 4000, 8000)
FRAMES_PROBE_SIZES = (16, 32, 64, 128)
PROBE_REPEATS = 3
FRAMES_PROBE_SPEC = "_ * * * VV"


def scaling_probes(lst) -> dict:
    """Log-log slopes of segment on verbless paragraphs and of frame_matches
    on a frame with three '*' slots that fails on every sequence."""
    points = []
    for n in SEGMENT_PROBE_SIZES:
        doc = lst.format.read_columnar(gen.verbless_paragraph(n), "probe")
        paragraph = doc.sentences[0].tokens
        points.append((n, _best_time(lambda: lst.segment.segment_paragraphs([paragraph]), PROBE_REPEATS)))
    frames = lst.frames
    frame = frames.compile_frame(FRAMES_PROBE_SPEC, "probe")
    noun = lst.schema.parse_pos_tag("NN")
    frame_points = []
    for n in FRAMES_PROBE_SIZES:
        tags = [noun] * n
        frame_points.append((n, _best_time(lambda: frames.frame_matches(tags, 0, frame), PROBE_REPEATS)))
    return {
        "segment.scaling_exponent": _slope(points),
        "frames.scaling_exponent": _slope(frame_points),
        "probe_seconds": {"segment": points, "frames": frame_points},
    }


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict, runner: Runner) -> dict:
    scales = traced["scales"]
    totals = tracer.totals(scales)

    def busy(name):
        return totals[name]["busy_s"] if name in totals else 0.0

    def rate(name, per=1.0):
        seconds = busy(name)
        return totals[name]["work"]["tokens"] / seconds * per if seconds else 0.0

    def work(name, key):
        return totals[name]["work"][key] if name in totals else 0

    lint_tokens = work("validate.lint_document", "tokens")
    short_s = short_tok = long_s = long_tok = 0.0
    for name, start, end, _, call_id, info in tracer.spans:
        if name == "segment.segment_paragraphs":
            seconds = (end - start) * scales[call_id]
            if info["longest"] >= 1000:
                long_s, long_tok = long_s + seconds, long_tok + info["tokens"]
            else:
                short_s, short_tok = short_s + seconds, short_tok + info["tokens"]
    classify_calls = totals["frames.classify_instance"]["calls"] if "frames.classify_instance" in totals else 0
    match_calls = tracer.counts["frames.frame_matches.calls"]
    untraced_s = sum(t * s for t, s in zip(untraced["times"], untraced["scales"]))
    traced_s = sum(t * s for t, s in zip(traced["times"], scales))
    return {
        "format.read_columnar.tok_per_s": rate("format.read_columnar"),
        "format.read_columnar.busy_s": busy("format.read_columnar"),
        "format.read_inline.tok_per_s": rate("format.read_inline"),
        "format.read_inline.busy_s": busy("format.read_inline"),
        "format.write_columnar.tok_per_s": rate("format.write_columnar"),
        "format.write_inline.tok_per_s": rate("format.write_inline"),
        "format.lines_rejected": work("format.read_columnar", "rejected") + work("format.read_inline", "rejected"),
        "validate.lint_document.tok_per_s": rate("validate.lint_document"),
        "validate.lint_document.busy_s": busy("validate.lint_document"),
        "validate.issues_per_ktok": work("validate.lint_document", "issues") / lint_tokens * 1e3 if lint_tokens else 0.0,
        "validate.to_dicts.busy_s": busy("validate.to_dicts"),
        "cli.main.self_s": totals["cli.main"]["self_s"],
        "cli.output_bytes": runner.output_bytes,
        "cli.read_bytes": runner.read_bytes,
        "segment.segment_paragraphs.tok_per_s": rate("segment.segment_paragraphs"),
        "segment.segment_paragraphs.busy_s": busy("segment.segment_paragraphs"),
        "segment.aggregate_sentences.busy_s": busy("segment.aggregate_sentences"),
        "segment.ns_per_tok.short": short_s / short_tok * 1e9 if short_tok else 0.0,
        "segment.ns_per_tok.long": long_s / long_tok * 1e9 if long_tok else 0.0,
        "segment.clauses": work("segment.segment_paragraphs", "clauses"),
        "segment.sentences": work("segment.segment_paragraphs", "sentences"),
        "stats.document_counts.busy_s": busy("stats.document_counts"),
        "stats.tag_frequency.busy_s": busy("stats.tag_frequency"),
        "frames.classify_instance.us_per_call": busy("frames.classify_instance") / classify_calls * 1e6 if classify_calls else 0.0,
        "frames.classify_instance.busy_s": busy("frames.classify_instance"),
        "frames.frame_matches.calls": match_calls,
        "frames.match_ratio": tracer.counts["frames.frame_matches.hits"] / match_calls if match_calls else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }


def main(argv: list[str]) -> int:
    plan_path, seconds, trace, spans_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    lst = _import_package()
    runner = Runner(lst, plan)
    if not trace:
        run = runner.loop(seconds=seconds)
        result = end_to_end(run, runner.calls, plan["tail_percentile"])
    else:
        untraced = runner.loop(seconds=seconds * 0.4)
        runner.output_bytes = runner.read_bytes = 0
        tracer = Tracer()
        tracer.install(lst)
        try:
            run = runner.loop(count=len(untraced["times"]), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(Path(spans_path))
        layers = layer_metrics(tracer, run, untraced, runner)
        run["failed"] += untraced["failed"]
        run["times"] += untraced["times"]
        run["scales"] += untraced["scales"]
        layers.update(schema_metrics(lst, plan["samples"]))
        layers["format.doc_bytes_per_tok"] = doc_bytes_per_token(lst, plan["samples"])
        probes = scaling_probes(lst)
        result = {"metrics": layers, "probe_seconds": probes.pop("probe_seconds")}
        layers.update(probes)
        result["spans"] = len(tracer.spans)
    result.update(
        attempted=len(run["times"]),
        failed=run["failed"],
        problems=runner.problems,
        outputs_sha256=runner.digest.hexdigest(),
        outputs_hashed=min(len(run["times"]), len(runner.calls)),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
