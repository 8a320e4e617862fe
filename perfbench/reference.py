"""Independent checker for the benchmark's op outputs.

Nothing here imports wittcycles: every expected value is recomputed from the
raw edge list by routes that share no code with the package, so a wrong
answer from the program cannot also be the checker's answer.

- Power traces come from a successor-list walk (vector propagation along the
  allowed successions), not from matrix powers.
- Class counts come from Moebius inversion of those traces.
- det(1 - zT) comes from the Newton recursion on those traces, and the zeta
  series from inverting it term by term in integers.

Each check_* function returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Sequence

# The default verify grid of the command line, which with the composite
# dimension cap fixes how many checks a group runs and skips. Per ordered
# pair of graphs: s-kron and class-kron at n = 1..6, and the two mixed-power
# checks at n = 1..4. Per graph: s-power and class-power for l = 2, 3 at
# n = 1..6, plus the four graph-level checks. Per ordered triple: s-kron-multi
# at n = 1..4. A pair over the cap skips its four check names, a triple one.
VERIFY_PAIR_ENTRIES = 2 * 6 + 2 * 4
VERIFY_POWER_ENTRIES = 2 * 2 * 6
VERIFY_MULTI_ENTRIES = 4
VERIFY_GRAPH_ENTRIES = 4
VERIFY_PAIR_TOKENS = 4
MAX_COMPOSITE_DIM = 64


class GraphFacts:
    """Reference values for one graph, computed once and reused by every op
    that reads the same file."""

    def __init__(self, vertices: int, edges: Sequence[Sequence[int]]):
        self.vertices = vertices
        self.edges = [tuple(e) for e in edges]
        m = len(self.edges)
        self.dim = 2 * m
        self.origins = [u for u, _ in self.edges] + [v for _, v in self.edges]
        self.ends = [v for _, v in self.edges] + [u for u, _ in self.edges]
        self.successors = [
            [j for j in range(self.dim)
             if self.ends[i] == self.origins[j] and j != (i + m) % self.dim]
            for i in range(self.dim)
        ]
        self._traces: list[int] = []

    def traces(self, k: int, limit: int | None = None) -> list[int]:
        """[tr T^1, ..., tr T^k] by walking every start edge k steps. With a
        limit the walk may stop early, after the first trace that takes
        their sum past it."""
        known = self._traces
        if len(known) < k and (limit is None or sum(known) <= limit):
            self._traces = known = walk_traces(self.successors, k, limit)
        return known[:k]

    def walk_budgets(self, n: int, limit: int | None = None) -> list[int]:
        """Walk budgets sum_{i<=l} tr T^i for l = 1, 2, ..., n: the closed
        walks an oracle run of length l has to find. With a limit they may
        stop after the first one over it."""
        return list(accumulate(self.traces(n, limit)))


def walk_traces(successors: Sequence[Sequence[int]], k: int, limit: int | None = None) -> list[int]:
    """[tr T^1, ..., tr T^k]: walk a vector from every start edge one step at
    a time and read off how much has returned. Stops early, with fewer
    traces, once their sum passes limit."""
    dim = len(successors)
    vecs = [{start: 1} for start in range(dim)]
    traces: list[int] = []
    for _ in range(k):
        trace = 0
        for start in range(dim):
            nxt: dict[int, int] = {}
            for i, c in vecs[start].items():
                for j in successors[i]:
                    nxt[j] = nxt.get(j, 0) + c
            vecs[start] = nxt
            trace += nxt.get(start, 0)
        traces.append(trace)
        if limit is not None and sum(traces) > limit:
            break
    return traces


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def class_counts(traces: Sequence[int]) -> list[int]:
    """Non-periodic class counts (1/n) sum_{g|n} mu(g) tr T^(n/g)."""
    out = []
    for n in range(1, len(traces) + 1):
        total = sum(_mobius(g) * traces[n // g - 1] for g in range(1, n + 1) if n % g == 0)
        if total % n:
            raise ValueError(f"Moebius sum at n={n} is not divisible by n")
        out.append(total // n)
    return out


def newton_det(traces: Sequence[int], n: int) -> list[int]:
    """a_0..a_n of det(1 - zT) = sum a_i z^i, from tr T^1..tr T^n."""
    a = [1]
    for i in range(1, n + 1):
        s = -sum(traces[k - 1] * a[i - k] for k in range(1, i + 1))
        if s % i:
            raise ValueError(f"Newton recursion at i={i} is not exact")
        a.append(s // i)
    return a


def _trimmed(coeffs: list[int]) -> list[int]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def inverse_series(det: Sequence[int], order: int) -> list[int]:
    """z^0..z^order of 1/det for an integer det with constant term 1."""
    z = [1]
    for n in range(1, order + 1):
        z.append(-sum(det[i] * z[n - i] for i in range(1, min(n, len(det) - 1) + 1)))
    return z


def _strs(values: Sequence[int]) -> list[str]:
    return [str(v) for v in values]


def check_report(stdout: str, g: GraphFacts, order: int) -> str | None:
    doc = json.loads(stdout)
    traces = g.traces(order)
    counts = class_counts(traces)
    if doc["graph"]["vertices"] != g.vertices or doc["graph"]["edges"] != len(g.edges):
        return "graph summary differs from the input file"
    if doc["order"] != order:
        return f"order {doc['order']} != {order}"
    if doc["traces"] != _strs(traces):
        return "traces differ from the successor-list walk"
    if doc["class_counts"] != _strs(counts):
        return "class_counts differ from Moebius inversion of the walk traces"
    if doc["lie_dims"] != doc["class_counts"]:
        return "lie_dims differ from class_counts"
    zeta = doc["zeta_coefficients"]
    if zeta[1:] != doc["enveloping_dims"]:
        return "zeta_coefficients[1:] != enveloping_dims"
    det = [int(c) for c in doc["det_coefficients"]]
    if zeta != _strs(inverse_series(det, order)):
        return "zeta_coefficients are not the series inverse of det_coefficients"
    if (det + [0] * order)[: order + 1] != newton_det(traces, order):
        return "det_coefficients differ from the Newton recursion on the walk traces"
    return None


def check_oracle(stdout: str, g: GraphFacts, n_max: int) -> str | None:
    doc = json.loads(stdout)
    traces = g.traces(n_max)
    counts = class_counts(traces)
    if doc["oracle_max"] != n_max or len(doc["rows"]) != n_max:
        return "oracle_max or row count differs from the request"
    for n, row in enumerate(doc["rows"], start=1):
        expected = (n, str(traces[n - 1]), str(traces[n - 1]), str(counts[n - 1]),
                    str(counts[n - 1]), True)
        got = (row["n"], row["trace"], row["enumerated"], row["class_count"],
               row["nonperiodic_classes"], row["match"])
        if got != expected:
            return f"row n={n}: {got} != {expected}"
    if doc["all_match"] is not True:
        return "all_match is not true"
    return None


def check_necklace(stdout: str, g: GraphFacts, n: int) -> str | None:
    doc = json.loads(stdout)
    expected = class_counts(g.traces(n))[n - 1]
    if doc["length"] != n or doc["colors"] != g.dim:
        return "length or colors differ from the request"
    words = doc["words"]
    if doc["count"] != str(expected) or len(words) != expected:
        return f"count {doc['count']} ({len(words)} words) != Moebius count {expected}"
    reps = []
    for word in words:
        edges = tuple(int(c[1:]) - 1 for c in word.split(" "))
        if len(edges) != n:
            return f"word {word!r} has the wrong length"
        for k in range(n):
            if edges[(k + 1) % n] not in g.successors[edges[k]]:
                return f"word {word!r} is not a closed non-backtracking tail-less cycle"
        rotations = [edges[k:] + edges[:k] for k in range(1, n)]
        if any(r == edges for r in rotations):
            return f"word {word!r} is periodic"
        if any(r < edges for r in rotations):
            return f"word {word!r} is not its least rotation"
        reps.append(edges)
    if reps != sorted(set(reps)):
        return "words are not distinct and in representative order"
    return None


def expected_verify_counts(dims: Sequence[int]) -> tuple[int, int]:
    """(checks run, checks skipped) of a default verify over graphs with these
    edge-matrix dimensions: pair composites and triple Kronecker products
    above MAX_COMPOSITE_DIM are skipped, not run."""
    pairs_ok = sum(1 for a in dims for b in dims if a * b <= MAX_COMPOSITE_DIM)
    triples_ok = sum(1 for a in dims for b in dims for c in dims
                     if a * b * c <= MAX_COMPOSITE_DIM)
    pairs, triples = len(dims) ** 2, len(dims) ** 3
    run = (len(dims) * (VERIFY_GRAPH_ENTRIES + VERIFY_POWER_ENTRIES)
           + pairs_ok * VERIFY_PAIR_ENTRIES + triples_ok * VERIFY_MULTI_ENTRIES)
    skipped = (pairs - pairs_ok) * VERIFY_PAIR_TOKENS + (triples - triples_ok)
    return run, skipped


def check_verify(stdout: str, names: Sequence[str], graphs: Sequence[GraphFacts],
                 order: int) -> str | None:
    doc = json.loads(stdout)
    run, skipped = expected_verify_counts([g.dim for g in graphs])
    counts = doc["counts"]
    if doc["all_pass"] is not True or counts["failed"] != 0:
        return f"verify did not pass: {counts}"
    if (counts["passed"], counts["skipped"], len(doc["checks"])) != (run, skipped, run):
        return f"verify ran/skipped {counts['passed']}/{counts['skipped']}, expected {run}/{skipped}"
    if doc["graphs"] != list(names) or doc["order"] != order:
        return "graph names or order differ from the request"
    det_routes = {e["graphs"][0]: e for e in doc["checks"] if e["check"] == "det-routes"}
    for name, g in zip(names, graphs):
        want = str(_strs(_trimmed(newton_det(g.traces(g.dim), g.dim))))
        entry = det_routes.get(name)
        if entry is None or entry["lhs"] != want or entry["rhs"] != want:
            return f"det-routes for {name} differs from the Newton recursion on walk traces"
    if any(e["pass"] is not True or e["lhs"] != e["rhs"] for e in doc["checks"]):
        return "a check entry does not pass"
    return None
