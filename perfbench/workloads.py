"""Seeded workload inputs: random connected multigraphs and the CLI ops that
read them.

Every graph is a random spanning tree (so it is connected) plus random extra
edges; loops and parallel edges are allowed. The program only ever sees the
JSON files written here. Each workload fixes the edge and vertex counts of
its k-th graph (and for oracle-enum its length N) from k alone and leaves
only the edges random. The op list of every seed then has the same mix of
sizes, and the medians of two seeds can be compared.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from reference import GraphFacts, expected_verify_counts


@dataclass(frozen=True)
class Op:
    """One CLI call: the kind of output to check, the graph indices it reads,
    and its order K (report, verify) or length N (oracle, necklace)."""

    kind: str
    graphs: tuple[int, ...]
    param: int


@dataclass
class Inputs:
    graphs: list[tuple[int, list[tuple[int, int]]]]
    ops: list[Op]
    paths: list[Path] = field(default_factory=list)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for k, (vertices, edges) in enumerate(self.graphs):
            path = directory / f"g{k:03d}.json"
            path.write_text(json.dumps({"vertices": vertices, "edges": edges}) + "\n",
                            encoding="utf-8")
            self.paths.append(path)

    def argv(self, op: Op) -> list[str]:
        files = [str(self.paths[k]) for k in op.graphs]
        if op.kind == "report":
            return ["report", *files, "--order", str(op.param)]
        if op.kind == "verify":
            return ["verify", *files, "--order", str(op.param)]
        if op.kind == "oracle":
            return ["oracle", *files, "--oracle-max", str(op.param)]
        return ["necklace", *files, str(op.param)]


def random_multigraph(rng: random.Random, two_e: int, vertices: int) -> tuple[int, list[tuple[int, int]]]:
    """A connected multigraph with two_e // 2 edges on the given vertices."""
    m = two_e // 2
    edges = []
    for v in range(1, vertices):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    while len(edges) < m:
        edges.append((rng.randrange(vertices), rng.randrange(vertices)))
    rng.shuffle(edges)
    return vertices, edges


# report-dense: dense mat_mul in trace_powers dominates (traces up to 2|E|).
DENSE_TWO_E = (28, 30, 32, 34, 36)
DENSE_PER_STRATUM = 8
DENSE_ORDER = 12

# report-deep: the partition sums dominate; graphs are tiny.
DEEP_TWO_E = (4, 6, 8, 10, 12)
DEEP_PER_STRATUM = 16
DEEP_ORDER = 18

# verify-mix: one small and one medium graph per group. Small x small
# composites and small^3 Kronecker products reach dims 36-64; medium x small
# composites reach 36-44 for a 2-edge-matrix small graph and are skipped
# (over 64) otherwise.
VERIFY_SMALL_TWO_E = (2, 4, 6)
VERIFY_MEDIUM_TWO_E = (18, 20, 22)
VERIFY_PER_STRATUM = 4
VERIFY_ORDER = 12

# oracle-enum: each graph's N is the largest length <= 10 whose walk budget
# sum_{n<=N} tr T^n lies in this band; without it op cost spans four decades.
# The k-th graph's vertex count and N come from the k-th slot of its edge
# count, and its edges are redrawn until its N is the slot's, so every seed
# has the same mix of lengths. The slots are the (|V|, N) pairs random
# graphs of that size reach most often; each is hit by at least 6% of draws.
ORACLE_TWO_E = (6, 8, 10)
ORACLE_SLOTS = {6: ((1, 6),), 8: ((1, 5), (2, 8), (2, 9)), 10: ((3, 8), (3, 9), (3, 10))}
ORACLE_PER_STRATUM = 8
ORACLE_MAX_N = 10
ORACLE_BUDGET = (12_000, 20_000)
ORACLE_MAX_DRAWS = 10_000


def _ladder(step: int, low: int, high: int) -> int:
    """The step-th value of low, low + 1, ..., max(low, high), repeated."""
    return low + step % (max(low, high) - low + 1)


def report_dense(rng: random.Random) -> Inputs:
    graphs = []
    for k in range(len(DENSE_TWO_E) * DENSE_PER_STRATUM):
        two_e = DENSE_TWO_E[k % len(DENSE_TWO_E)]
        graphs.append(random_multigraph(rng, two_e, 2 + k // len(DENSE_TWO_E)))
    ops = [Op("report", (k,), DENSE_ORDER) for k in range(len(graphs))]
    return Inputs(graphs, ops)


def report_deep(rng: random.Random) -> Inputs:
    graphs = []
    for k in range(len(DEEP_TWO_E) * DEEP_PER_STRATUM):
        two_e = DEEP_TWO_E[k % len(DEEP_TWO_E)]
        graphs.append(random_multigraph(rng, two_e, _ladder(k // len(DEEP_TWO_E), 1, two_e // 2 - 1)))
    ops = [Op("report", (k,), DEEP_ORDER) for k in range(len(graphs))]
    return Inputs(graphs, ops)


def verify_mix(rng: random.Random) -> Inputs:
    graphs, ops = [], []
    combos = [(s, m) for m in VERIFY_MEDIUM_TWO_E for s in VERIFY_SMALL_TWO_E]
    for k in range(len(combos) * VERIFY_PER_STRATUM):
        small, medium = combos[k % len(combos)]
        step = k // len(combos)
        graphs.append(random_multigraph(rng, small, _ladder(step, 1, small // 2)))
        graphs.append(random_multigraph(rng, medium, _ladder(step, 2, medium // 4)))
        ops.append(Op("verify", (2 * k, 2 * k + 1), VERIFY_ORDER))
    return Inputs(graphs, ops)


def oracle_length(g: GraphFacts) -> int | None:
    """Largest N <= ORACLE_MAX_N whose walk budget lies in ORACLE_BUDGET."""
    lo, hi = ORACLE_BUDGET
    in_band = [n for n, budget in enumerate(g.walk_budgets(ORACLE_MAX_N, hi), start=1)
               if lo <= budget <= hi]
    return in_band[-1] if in_band else None


def oracle_enum(rng: random.Random) -> Inputs:
    graphs, ops = [], []
    for k in range(len(ORACLE_TWO_E) * ORACLE_PER_STRATUM):
        two_e = ORACLE_TWO_E[k % len(ORACLE_TWO_E)]
        slots = ORACLE_SLOTS[two_e]
        vertices, n = slots[(k // len(ORACLE_TWO_E)) % len(slots)]
        for _ in range(ORACLE_MAX_DRAWS):
            edges = random_multigraph(rng, two_e, vertices)[1]
            if oracle_length(GraphFacts(vertices, edges)) == n:
                break
        else:
            raise RuntimeError(f"no {two_e // 2}-edge graph has N = {n} in the walk budget band")
        graphs.append((vertices, edges))
        ops += [Op("oracle", (k,), n), Op("necklace", (k,), n)]
    return Inputs(graphs, ops)


WORKLOADS = {
    "report-dense": report_dense,
    "report-deep": report_deep,
    "verify-mix": verify_mix,
    "oracle-enum": oracle_enum,
}


def build(workload: str, seed: int) -> Inputs:
    # One stream per (workload, seed): changing one workload's draws never
    # shifts another's.
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def control_group(seed: int) -> Inputs:
    """The negative-control verify group: the first verify-mix group of the seed."""
    full = verify_mix(random.Random(f"control:{seed}"))
    return Inputs(full.graphs[:2], full.ops[:1])


def properties(inputs: Inputs, facts: list[GraphFacts]) -> dict:
    """Input properties of a workload, so a later change can state what share
    of the ops has a property it depends on."""
    loops = [sum(1 for u, v in edges if u == v) for _, edges in inputs.graphs]
    parallel = [len(edges) - len({tuple(sorted(e)) for e in edges}) for _, edges in inputs.graphs]
    budgets = [facts[op.graphs[0]].walk_budgets(op.param)[-1] for op in inputs.ops
               if op.kind in ("oracle", "necklace")]
    props = {
        "graphs": len(inputs.graphs),
        "ops": len(inputs.ops),
        "two_e_histogram": dict(sorted(Counter(2 * len(e) for _, e in inputs.graphs).items())),
        "vertices_histogram": dict(sorted(Counter(v for v, _ in inputs.graphs).items())),
        "loops_total": sum(loops),
        "graphs_with_loops": sum(1 for x in loops if x),
        "parallel_edges_total": sum(parallel),
        "graphs_with_parallel_edges": sum(1 for x in parallel if x),
        "param_histogram": dict(sorted(Counter(f"{op.kind}:{op.param}" for op in inputs.ops).items())),
    }
    if budgets:
        props["walk_budget"] = {"min": min(budgets), "median": statistics.median(budgets),
                                "max": max(budgets)}
    verify_ops = [op for op in inputs.ops if op.kind == "verify"]
    if verify_ops:
        runs, skips = zip(*(expected_verify_counts([facts[k].dim for k in op.graphs])
                            for op in verify_ops))
        props["verify_checks_run"] = sum(runs)
        props["verify_checks_skipped"] = sum(skips)
    return props
