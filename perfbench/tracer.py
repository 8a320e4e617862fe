"""Per-layer tracing from outside the program.

The tracer wraps every public module-level function of the layer modules and
rebinds each wrapper wherever a wittcycles module holds the original, so a
name bound with ``from .matrices import trace_powers`` in report, cli and
witt is covered as well as ``wittcycles.matrices.trace_powers``. Nothing
under ``src/`` changes; ``uninstall`` puts the originals back.

Each call records a span [function, parent span, op id, start, end, busy].
For an ordinary function busy = end - start. A generator's span runs from its
first resumption to its exhaustion, and busy adds up only the time spent
inside the generator, so a consumer's own work between items stays the
consumer's.

Self time of a span is its busy time minus the busy time of its direct
children. A layer's self time sums the self time of its spans. A function
metric sums the self time of the spans whose nearest caller outside the
function's module is reached through that function, so ``trace_powers``
includes the ``mat_mul`` calls it makes and ``coefficients_from_traces``
excludes the partitions that numtheory generates for it.

``functools.lru_cache`` helpers (numtheory's ``mobius`` and ``divisors``) are
not plain functions and are left unwrapped: a span would cost more than the
cached lookup, and their time stays with the caller.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

LAYERS = ("cli", "report", "graphs", "matrices", "witt", "numtheory", "series", "oracle")

# Function metrics: name -> (layer, entry functions whose attributed self
# time is summed).
FUNCTION_METRICS = {
    "matrices.trace_powers_s": ("matrices", {"trace_powers"}),
    "matrices.det_poly_direct_s": ("matrices", {"det_poly_direct"}),
    "matrices.kronecker_s": ("matrices", {"kronecker"}),
    "matrices.mat_pow_s": ("matrices", {"mat_pow"}),
    "matrices.det_poly_from_traces_s": ("matrices", {"det_poly_from_traces"}),
    "witt.coefficients_from_traces_s": ("witt", {"coefficients_from_traces"}),
    "witt.traces_from_coefficients_s": ("witt", {"traces_from_coefficients"}),
    "witt.graded_lie_dimension_s": ("witt", {"graded_lie_dimension"}),
    "witt.class_counts_s": ("witt", {"cycle_class_count", "cycle_class_table", "mobius_trace_sum"}),
    "witt.identity_sides_s": ("witt", {
        "s_kron_pair_sides", "s_kron_multi_sides", "s_power_sides", "s_mixed_powers_sides",
        "class_kron_pair_sides", "class_power_sides", "class_mixed_powers_sides",
        "verify_identity",
    }),
    "series.series_inverse_s": ("series", {"series_inverse"}),
    "series.product_power_s": ("series", {"product_power"}),
    "oracle.enumerate_cycles_s": ("oracle", {"enumerate_cycles"}),
    "oracle.count_nonperiodic_classes_s": ("oracle", {"count_nonperiodic_classes"}),
    "oracle.necklace_classes_s": ("oracle", {"necklace_classes"}),
}

# Counts reported as metrics. "oracle.nonperiodic_classes" is also counted,
# as the numerator of oracle.useful_ratio.
COUNT_METRICS = (
    "matrices.mat_mul_calls",
    "matrices.mat_mul_madds",
    "matrices.bareiss_calls",
    "numtheory.partitions_yielded",
    "numtheory.lcm_tuples_yielded",
    "oracle.cycles_walked",
)


def _count_mat_mul(counts: Counter, args: tuple, result: Any) -> None:
    counts["matrices.mat_mul_calls"] += 1
    counts["matrices.mat_mul_madds"] += args[0].dim ** 3


# Counters read at the layer boundary: (layer, function) -> hook on the
# arguments and result of each call, or the counter that a generator's
# yielded items add to.
RESULT_HOOKS: dict[tuple[str, str], Callable[[Counter, tuple, Any], None]] = {
    ("matrices", "mat_mul"): _count_mat_mul,
    ("matrices", "bareiss_determinant"):
        lambda c, a, r: c.update({"matrices.bareiss_calls": 1}),
    ("numtheory", "pairs_with_lcm"):
        lambda c, a, r: c.update({"numtheory.lcm_tuples_yielded": len(r)}),
    ("oracle", "count_nonperiodic_classes"):
        lambda c, a, r: c.update({"oracle.nonperiodic_classes": r}),
    ("oracle", "necklace_classes"):
        lambda c, a, r: c.update({"oracle.nonperiodic_classes": len(r)}),
}
YIELD_COUNTERS = {
    ("numtheory", "exponent_multisets"): "numtheory.partitions_yielded",
    ("numtheory", "tuples_with_lcm"): "numtheory.lcm_tuples_yielded",
}
# The oracle's private cycle generator is what every oracle entry point
# walks; it is counted, not timed. oracle.cycles_walked means its yields and
# nothing else, so a traced run of a program without it is refused.
CYCLE_SOURCE = "_raw_cycles"


class TraceError(Exception):
    """The program lacks a hook the traced run's metrics are defined by."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._wrappers: list[tuple[Callable, Callable]] = []
        self._patched: list[tuple[Any, str, Callable]] = []

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, fid: int, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[3], span[4], span[5] = start, end, end - start
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def _generator_wrapper(self, fid: int, fn: Callable, counter: str | None) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = None
            idx = -1
            yielded = 0
            try:
                while True:
                    start = perf_counter()
                    if span is None:
                        idx = len(spans)
                        span = [fid, stack[-1] if stack else -1, self.op, start, start, 0.0]
                        spans.append(span)
                    stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        end = perf_counter()
                        stack.pop()
                        span[4] = end
                        span[5] += end - start
                    yielded += 1
                    yield item
            finally:
                inner.close()
                if counter is not None:
                    self.counts[counter] += yielded

        return traced

    def _counting_wrapper(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            n = 0
            for item in fn(*args, **kwargs):
                n += 1
                yield item
            counts[counter] += n

        return counted

    def install(self) -> None:
        """Wrap the layer functions and rebind every reference to them."""
        if self._wrappers:
            self._rebind(self._wrappers)
            return
        modules = {layer: sys.modules[f"wittcycles.{layer}"] for layer in LAYERS}
        raw = getattr(modules["oracle"], CYCLE_SOURCE, None)
        if not inspect.isgeneratorfunction(raw):
            raise TraceError(f"wittcycles.oracle.{CYCLE_SOURCE} is not a generator function, "
                             "so oracle.cycles_walked cannot be counted")
        self._wrappers.append((raw, self._counting_wrapper(raw, "oracle.cycles_walked")))
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                fid = len(self.names)
                self.names.append((layer, name))
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._generator_wrapper(fid, fn, YIELD_COUNTERS.get((layer, name)))
                else:
                    wrapper = self._span_wrapper(fid, fn, RESULT_HOOKS.get((layer, name)))
                self._wrappers.append((fn, wrapper))
        self._rebind(self._wrappers)

    def _rebind(self, pairs: list[tuple[Callable, Callable]]) -> None:
        by_id = {id(orig): (orig, wrapper) for orig, wrapper in pairs}
        for modname, module in list(sys.modules.items()):
            if modname != "wittcycles" and not modname.startswith("wittcycles."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation ------------------------------------------------------

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def self_times(self, spans: list[list]) -> dict[str, float]:
        """Layer and function self times (seconds) over a list of spans."""
        child_busy = [0.0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_busy[span[1]] += span[5]
        entry = [0] * len(spans)
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        by_entry: dict[tuple[str, str], float] = {}
        for i, span in enumerate(spans):
            layer = self.names[span[0]][0]
            parent = span[1]
            if parent >= 0 and self.names[spans[parent][0]][0] == layer:
                entry[i] = entry[parent]
            else:
                entry[i] = span[0]
            own = span[5] - child_busy[i]
            out[f"{layer}.self_s"] += own
            key = self.names[entry[i]]
            by_entry[key] = by_entry.get(key, 0.0) + own
        for metric, (layer, functions) in FUNCTION_METRICS.items():
            out[metric] = sum(by_entry.get((layer, f), 0.0) for f in functions)
        return out

    def dump(self, spans: list[list], path) -> None:
        """Write spans as tab-separated lines: span id, parent id, op id,
        layer.function, start, end, busy."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tfunction\tstart\tend\tbusy\n")
            for i, (fid, parent, op, start, end, busy) in enumerate(spans):
                layer, name = self.names[fid]
                fh.write(f"{i}\t{parent}\t{op}\t{layer}.{name}\t{start:.9f}\t{end:.9f}\t{busy:.9f}\n")
