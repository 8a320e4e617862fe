"""A fixed reference computation that measures how fast the host runs
Python right now.

Shared machines drift: on the 2-vCPU VM the benchmark was tuned on, the
same op ran 15-60% slower for seconds to minutes at a time, which put the
run-to-run spread of op latency near 20%. The benchmark runs this task
between ops and between set-ups, outside the timed region, and scales each
op's latency and each set-up's time by REFERENCE_S over the mean of the two
task times that bracket it (``scale``). A run on a slow stretch and a run on
a fast one then report comparable numbers; on that VM the spread of the op
metrics fell to 1-7%.

The task uses no wittcycles code, so no change to the program can move it,
and it runs with the garbage collector off, so the program's heap does not
slow it either. It mixes the kinds of work the program does: dense integer
dot products with growing big ints, exact rational sums over partitions, and
a depth-first walk over successor lists.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from math import factorial
from time import perf_counter

# Median task time on the machine the benchmark was tuned on (2-vCPU x86 VM,
# Python 3.11). Scaled times are in seconds on a host of that speed.
REFERENCE_S = 0.0100

_DIM = 14
_MATRIX = tuple(tuple((3 * i + 5 * j) % 4 // 2 for j in range(_DIM)) for i in range(_DIM))
_SUCCESSORS = tuple(tuple((i + d) % 9 for d in (1, 2, 4)) for i in range(9))


def _matrix_powers() -> int:
    cols = tuple(zip(*_MATRIX))
    power, total = _MATRIX, 0
    for _ in range(8):
        power = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in power)
        total += sum(power[i][i] for i in range(_DIM))
    return total


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _partition_sum() -> Fraction:
    total = Fraction(0)
    for parts in _partitions(16, 16):
        term = Fraction(1)
        for p in set(parts):
            m = parts.count(p)
            term *= Fraction((p + 2) ** m, factorial(m) * p ** m)
        total += term
    return total


def _walks() -> int:
    count = 0
    stack = [(start, start, 0) for start in range(9)]
    while stack:
        start, at, depth = stack.pop()
        if depth == 6:
            count += at == start
            continue
        for nxt in _SUCCESSORS[at]:
            stack.append((start, nxt, depth + 1))
    return count


def task_seconds() -> float:
    """Run the reference task once and return its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _matrix_powers()
        _partition_sum()
        _walks()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(latencies: list[float], tasks: list[float]) -> list[float]:
    """Each latency times REFERENCE_S over the mean of the task times right
    before and right after it: tasks[i] ran just before op i, tasks[i + 1]
    just after. The drift comes and goes within seconds, so only the nearest
    samples describe the host the op ran on."""
    return [
        latency * 2 * REFERENCE_S / (tasks[i] + tasks[i + 1])
        for i, latency in enumerate(latencies)
    ]
