"""Memory probe: how much heap one large CLI call holds at once.

Usage: memory_probe.py CALLS_JSON

CALLS_JSON holds ``warmup``, a list of argument lists, and ``measure``, a
list of calls, each a list of argument lists (its steps). In a fresh
process, this imports the CLI and makes each step once through
``lst20tools.cli.main``, outputs to files: first the warm-up steps, which
pay the program's one-time lazy set-up, then the measured calls. For each
step it records, with tracemalloc, the peak of the Python heap above what
was allocated when the step started, after a full garbage collection, so
that the figure depends on the input alone; a call's peak is that of its
largest step. Prints one JSON
object: ``peak_heap_mb``, the median of those peaks, ``peak_heap_max_mb``,
the largest, and ``peak_rss_mb``, the process's peak RSS, for information.

The harness's own memory (the plan's expectations, the output checks) stays
out of this process. Outputs are not checked here, and a call that raises
does not stop the probe: the worker process checks and counts every call.
"""

import gc
import io
import json
import resource
import sys
import tracemalloc
from contextlib import redirect_stderr
from statistics import median

from lst20tools import cli


def _call(argv: list[str]) -> None:
    try:
        with redirect_stderr(io.StringIO()):
            cli.main(argv)
    except (Exception, SystemExit):
        pass


def main(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        calls = json.load(f)
    for argv in calls["warmup"]:
        _call(argv)
    peaks = []
    tracemalloc.start()
    for steps in calls["measure"]:
        peak = 0
        for argv in steps:
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _call(argv)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - start)
        peaks.append(peak / 2**20)
    tracemalloc.stop()
    print(json.dumps({"peak_heap_mb": median(peaks), "peak_heap_max_mb": max(peaks),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
