"""Finite oriented multigraphs, their symmetrization, and the edge adjacency
matrix whose power traces count non-backtracking tail-less closed cycles.

Oriented edge indexing convention, shared by every module: the input edges
keep their positions 0..|E|-1 and the reversed copies sit at |E|..2|E|-1, so
the formal inverse of oriented edge i is (i + |E|) mod 2|E|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .config import DEFAULT_LIMITS
from .errors import CapExceeded
from .matrices import IntMatrix


@dataclass(frozen=True)
class OrientedGraph:
    """Vertex count plus an ordered multiset of oriented edges (origin, end).

    Loops and parallel edges are permitted; edge order is significant because
    it fixes the oriented-edge indexing everywhere downstream.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {self.vertex_count}")
        if len(self.edges) < 1:
            raise ValueError("graph must have at least one edge")
        for k, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(
                    f"edge {k} = ({u}, {v}) out of range for {self.vertex_count} vertices"
                )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OrientedGraph":
        """Parse the graph wire format {"vertices": n, "edges": [[u, v], ...]}."""
        try:
            vertices = data["vertices"]
            raw_edges = data["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph object must have 'vertices' and 'edges': {exc}") from exc
        if not isinstance(vertices, int) or isinstance(vertices, bool):
            raise ValueError(f"'vertices' must be an integer, got {vertices!r}")
        edges = []
        for k, e in enumerate(raw_edges):
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValueError(f"edge {k} must be a pair, got {e!r}")
            u, v = e
            # bool is a subclass of int, so true/false would pass as 1/0.
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in e):
                raise ValueError(f"edge {k} endpoints must be integers, got {e!r}")
            edges.append((u, v))
        return cls(vertices, tuple(edges))

    def to_dict(self) -> dict[str, Any]:
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class SymmetrizedGraph:
    """The 2|E|-edge doubling of an oriented graph with the inverse pairing.

    origins[i] / ends[i] give the endpoints of oriented edge i; the pairing
    i <-> i + |E| is a fixed-point-free involution.
    """

    base: OrientedGraph
    origins: tuple[int, ...]
    ends: tuple[int, ...]

    @property
    def oriented_edge_count(self) -> int:
        return 2 * self.base.edge_count

    def origin(self, i: int) -> int:
        return self.origins[i]

    def end(self, i: int) -> int:
        return self.ends[i]

    def inverse(self, i: int) -> int:
        return (i + self.base.edge_count) % self.oriented_edge_count


def symmetrize(g: OrientedGraph) -> SymmetrizedGraph:
    """Double every edge with its reversal: originals first, inverses after."""
    origins = tuple(u for u, _ in g.edges) + tuple(v for _, v in g.edges)
    ends = tuple(v for _, v in g.edges) + tuple(u for u, _ in g.edges)
    return SymmetrizedGraph(g, origins, ends)


def build_edge_matrix(sg: SymmetrizedGraph) -> IntMatrix:
    """0/1 edge adjacency matrix: entry (i, j) = 1 iff edge j may follow i.

    Edge j may follow edge i when end(i) = origin(j) and j is not the formal
    inverse of i. A loop may follow itself; only its inverse copy is banned.
    """
    dim = sg.oriented_edge_count
    rows = tuple(
        tuple(
            1 if sg.ends[i] == sg.origins[j] and j != sg.inverse(i) else 0
            for j in range(dim)
        )
        for i in range(dim)
    )
    return IntMatrix(rows)


def check_connected(g: OrientedGraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    adjacency: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.vertex_count


def load_graph(path: str | Path, max_dim: int = DEFAULT_LIMITS.max_matrix_dim) -> OrientedGraph:
    """Load a graph JSON file, enforcing the oriented-edge size cap."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    g = OrientedGraph.from_dict(data)
    if 2 * g.edge_count > max_dim:
        raise CapExceeded(
            f"{path}: 2|E| = {2 * g.edge_count} exceeds the matrix dimension cap {max_dim}"
        )
    return g


def dump_graph(g: OrientedGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(g.to_dict(), indent=2) + "\n", encoding="utf-8")
