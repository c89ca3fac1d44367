"""Spans around the calls into each lst20tools layer, recorded from outside.

The tracer replaces module attributes (``lst20tools.format.read_columnar``
and so on) with wrappers. Callers inside the package look these names up
in the module at call time, so nested calls are seen too. Each span keeps
its name, start, end, parent span and call id, plus the work it did
(tokens, issues, ...), measured after the span has ended. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _doc_tokens(doc) -> int:
    return sum(len(s.tokens) for s in doc.sentences)


def _sentences_tokens(sentences) -> int:
    return sum(len(s.tokens) for s in sentences)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, call_id, work]
        self.counts: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.call_id, None]
            if measure is not None:
                spans[index][5] = measure(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def tally(self, owner, attr: str, name: str) -> None:
        """Count calls and non-None results without recording spans."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name + ".calls"] += 1
            counts[name + ".hits"] += result is not None
            return result

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, original))

    def install(self, lst) -> None:
        """Wrap the layer boundaries of the lst20tools package ``lst``."""
        fmt, validate, segment, stats, frames = lst.format, lst.validate, lst.segment, lst.stats, lst.frames
        self.wrap(lst.cli, "main", "cli.main")

        def parsed(args, kwargs, result):
            tokens = _doc_tokens(result) if hasattr(result, "sentences") else _sentences_tokens(result)
            return {"tokens": tokens, "rejected": len(kwargs.get("errors") or ())}

        self.wrap(fmt, "read_columnar", "format.read_columnar", parsed)
        self.wrap(fmt, "read_inline", "format.read_inline", parsed)
        self.wrap(fmt, "write_columnar", "format.write_columnar",
                  lambda a, k, r: {"tokens": _doc_tokens(a[0])})
        self.wrap(fmt, "write_inline", "format.write_inline",
                  lambda a, k, r: {"tokens": _sentences_tokens(a[0])})
        self.wrap(validate, "lint_document", "validate.lint_document",
                  lambda a, k, r: {"tokens": _doc_tokens(a[0]), "issues": len(r.issues)})
        self.wrap(validate.LintReport, "to_dicts", "validate.to_dicts")

        def segmented(args, kwargs, result):
            sentences = result[0]
            return {
                "tokens": sum(len(p) for p in args[0]),
                "longest": max((len(p) for p in args[0]), default=0),
                "sentences": len(sentences),
                "clauses": sum(str(t.clause) == "B_CLS" for s in sentences for t in s.tokens),
            }

        self.wrap(segment, "segment_paragraphs", "segment.segment_paragraphs", segmented)
        self.wrap(segment, "aggregate_sentences", "segment.aggregate_sentences")
        self.wrap(stats, "document_counts", "stats.document_counts")
        self.wrap(stats, "tag_frequency", "stats.tag_frequency")
        self.wrap(frames, "classify_instance", "frames.classify_instance")
        self.tally(frames, "frame_matches", "frames.frame_matches")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def totals(self, scales: list[float]) -> dict:
        """Per span name: calls, busy (inclusive) time, self time, summed work.

        Times are scaled by ``scales[call_id]`` (see calibrate.py)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": Counter()})
        for index, (name, start, end, _, call_id, work) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["busy_s"] += (end - start) * scales[call_id]
            entry["self_s"] += (end - start - child_time[index]) * scales[call_id]
            if work:
                entry["work"].update(work)
        return totals
