"""Undirected communication graph of microgrid coordinators.

Immutable after load; every controller formula pulls degrees and neighbour
sets from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Sequence

from .errors import DisconnectedError, NotSymmetricError, SelfLoopError


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph over dense 0-based node ids."""

    node_count: int
    edges: tuple[tuple[int, int], ...]          # unordered pairs, i < j
    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.neighbors]

    @cached_property
    def d_max(self) -> int:
        return max(self.degrees)

    @cached_property
    def d_min(self) -> int:
        return min(self.degrees)

    def directed_edges(self) -> list[tuple[int, int]]:
        """All ordered pairs (i, j) with j a neighbour of i.

        Each undirected edge yields two directed controllers.
        """
        return [(i, j) for i in range(self.node_count) for j in self.neighbors[i]]


def load_topology(spec: Sequence[Sequence[float]]) -> Topology:
    """Build a Topology from a square adjacency description.

    Entries are presence/absence only; positive weights are accepted and
    collapsed to 1 (the ternary quantiser discards magnitudes).
    """
    n = len(spec)
    if n < 1 or any(not isinstance(row, list) or len(row) != n for row in spec):
        raise NotSymmetricError(f"topology.adjacency must be a square list of lists, got {n} rows")
    if not all(type(w) in (int, float) and 0 <= w < inf for row in spec for w in row):
        raise NotSymmetricError("topology.adjacency entries must be finite numbers >= 0")
    for i in range(n):
        if spec[i][i] != 0:
            raise SelfLoopError(f"nonzero diagonal at node {i}")
        for j in range(i + 1, n):
            if (spec[i][j] != 0) != (spec[j][i] != 0):
                raise NotSymmetricError(f"asymmetric entry at ({i}, {j})")

    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if spec[i][j] != 0
    )
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)

    if n > 1:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise DisconnectedError(f"graph is disconnected; unreachable nodes {missing}")

    return Topology(n, edges, tuple(tuple(sorted(x)) for x in nbrs))
