"""CPU-speed calibration for timing on shared cores.

On a machine whose cores are shared with other tenants (the hyper-threads
of a VM's virtual CPUs, say) the speed one thread gets can drop by half
for seconds at a time, and both of a run's cores may be slow for a whole
run. So the benchmark times a fixed task next to every timed call: pure
Python shaped like the program's own work (splitting tab-separated lines,
building tuples and a dict). A call's time is then scaled to the reference
speed at which that task takes REFERENCE_S:

    scaled = seconds * REFERENCE_S / calibration_s()

The task uses nothing from lst20tools, so no change to the program can
change it.
"""

from __future__ import annotations

from time import perf_counter

#: Time of the task on an uncontended core of the machine the baseline was
#: measured on (a 2-vCPU VM, Python 3.11).
REFERENCE_S = 3.5e-5

_LINES = [
    "" if i % 9 == 0 else f"w{i}\t{'NN' if i % 3 else 'VV'}\t{'O' if i % 5 else 'B_PER'}\tI_CLS"
    for i in range(150)
]
_TEXT = "\n".join(_LINES)


def _task() -> int:
    rows, block = {}, []
    for line in _TEXT.split("\n"):
        if line:
            fields = line.split("\t")
            block.append((fields[0], fields[1], fields[2], fields[3]))
        elif block:
            rows[len(rows)] = tuple(block)
            block = []
    return len(rows)


def calibration_s(repeats: int = 5) -> float:
    """Best time of the task over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _task()
        best = min(best, perf_counter() - start)
    return best
