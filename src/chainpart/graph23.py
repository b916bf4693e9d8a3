"""The symmetric transition graph on Omega(U) for bases (2, 3).

Two move families connect partitions of the same sum:

* Family A (merge, "2+1=3"): for the part 2^a*3^b with maximal a at its
  level b, if 2^(a-1)*3^b is also present, replace the two parts by
  2^(a-1)*3^(b+1).

* Family B (split with carry): if 2^(a-1)*3^b is absent, let C be the
  maximal contiguous run 2^(a-i)*3^b, i = 2..n, and c = a-2 when C is empty,
  c = a-n-1 otherwise.  When c >= 0 and no part 2^(c+1)*3^d with d < b
  exists, multiply C by 3, remove 2^a*3^b and add 2^c*3^b and 2^c*3^(b+1).

Every candidate result is checked against the chain invariant before it
becomes an edge (a B-candidate can break the chain against lower levels, in
which case it simply is not a move).  Neighbor sets include the inverses of
both families, found by matching the post-move shape and verified by
replaying the forward move, so the relation is symmetric by construction.

The graph is connected: repeatedly applying the downward inverse moves to the
highest 3-level reaches the binary partition in at most
log(U)^2 / (log 2 * log 3) steps, which bounds the diameter.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core import (
    InvalidSystemError,
    InvariantViolationError,
    Partition,
    PQSystem,
    binary_partition,
    value,
)
from .enumeration import ResidueEnumerator


def _require_23(sys: PQSystem) -> None:
    if (sys.p, sys.q) != (2, 3):
        raise InvalidSystemError("transition moves are defined for (p, q) = (2, 3)")


def diameter_bound(u: int) -> float:
    """log(u)^2 / (log 2 * log 3), an upper bound on the reduction length.

    Exponent pairs of parts lie under the line a*log 2 + b*log 3 = log u, so
    the reduction visits at most that many lattice points; the ratio is the
    same in any logarithm base.
    """
    if u < 2:
        return 0.0
    return math.log(u) ** 2 / (math.log(2) * math.log(3))


def _is_chain(desc_pairs: tuple[tuple[int, int], ...]) -> bool:
    for (a1, b1), (a2, b2) in zip(desc_pairs, desc_pairs[1:]):
        if a2 > a1 or b2 > b1:
            return False
    return True


def _sorted_partition(pairs: Iterable[tuple[int, int]]) -> Optional[Partition]:
    """Assemble a candidate move result; None when it is not a valid chain."""
    items = sorted(pairs, key=lambda ab: (ab[0] + ab[1], ab[0]), reverse=True)
    for x, y in zip(items, items[1:]):
        if x == y:
            return None
    desc = tuple(items)
    return Partition(desc) if _is_chain(desc) else None


def forward_moves(pt: Partition) -> set[Partition]:
    """All valid family A and family B moves out of ``pt``."""
    parts = set(pt.parts)
    levels: dict[int, set[int]] = {}
    for a, b in parts:
        levels.setdefault(b, set()).add(a)
    out: set[Partition] = set()
    for b, exps in levels.items():
        a = max(exps)
        if a - 1 in exps:
            # family A: merge 2^a*3^b + 2^(a-1)*3^b into 2^(a-1)*3^(b+1)
            cand = parts - {(a, b), (a - 1, b)} | {(a - 1, b + 1)}
            merged = _sorted_partition(cand)
            if merged is not None:
                out.add(merged)
            continue
        # family B: split 2^a*3^b, carrying the contiguous run below it
        run = []
        i = a - 2
        while i in exps:
            run.append(i)
            i -= 1
        c = a - 2 if not run else run[-1] - 1
        if c < 0:
            continue
        if any(x == c + 1 and d < b for x, d in parts):
            continue
        cand = parts - {(a, b)} - {(x, b) for x in run}
        cand |= {(x, b + 1) for x in run} | {(c, b), (c, b + 1)}
        split = _sorted_partition(cand)
        if split is not None:
            out.add(split)
    return out


def _inverse_candidates(pt: Partition) -> set[Partition]:
    """Partitions that could map to ``pt`` under a forward move.

    Family A inverses split a part (alpha, beta), beta >= 1, back into
    (alpha+1, beta-1) and (alpha, beta-1).  Family B inverses match the
    added pair (c, b), (c, b+1): the run sitting directly above (c, b+1)
    moves back down one level and the part (c + len(run) + 2, b) returns.
    Candidates are verified by the caller, so over-generation is harmless.
    """
    parts = set(pt.parts)
    cands: set[Partition] = set()
    for alpha, beta in parts:
        if beta >= 1:
            pair = {(alpha + 1, beta - 1), (alpha, beta - 1)}
            if not (pair & parts):
                cand = _sorted_partition(parts - {(alpha, beta)} | pair)
                if cand is not None:
                    cands.add(cand)
    for c, b in parts:
        if (c, b + 1) not in parts:
            continue
        run = []
        j = c + 1
        while (j, b + 1) in parts:
            run.append(j)
            j += 1
        a = c + len(run) + 2
        removed = parts - {(c, b), (c, b + 1)} - {(x, b + 1) for x in run}
        added = {(x, b) for x in run} | {(a, b)}
        if added & removed:
            continue
        cand = _sorted_partition(removed | added)
        if cand is not None:
            cands.add(cand)
    return cands


def neighbors(pt: Partition) -> frozenset[Partition]:
    """Neighbor set of ``pt`` in the transition graph of its sum."""
    out = set(forward_moves(pt))
    for cand in _inverse_candidates(pt):
        if pt in forward_moves(cand):
            out.add(cand)
    out.discard(pt)
    return frozenset(out)


@dataclass(frozen=True)
class TransitionGraph:
    """Vertices Omega(u) with the symmetric move relation."""

    u: int
    vertices: tuple[Partition, ...]
    adjacency: dict[Partition, frozenset[Partition]]

    @property
    def edges(self) -> set[frozenset[Partition]]:
        out: set[frozenset[Partition]] = set()
        for v, nbrs in self.adjacency.items():
            out.update(frozenset((v, w)) for w in nbrs)
        return out

    def bfs_layers(self, start: Partition) -> dict[Partition, int]:
        dist = {start: 0}
        queue = deque((start,))
        while queue:
            v = queue.popleft()
            for w in self.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self.bfs_layers(self.vertices[0])) == len(self.vertices)

    def diameter(self) -> int:
        """Exact diameter by BFS from every vertex, on vertex indices (graph must be connected)."""
        index = {v: i for i, v in enumerate(self.vertices)}
        nbrs = [[index[w] for w in self.adjacency[v]] for v in self.vertices]
        best = 0
        for start in range(len(nbrs)):
            dist = [-1] * len(nbrs)
            dist[start] = 0
            queue = deque((start,))
            while queue:
                v = queue.popleft()
                for w in nbrs[v]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            if min(dist) < 0:
                raise InvariantViolationError(
                    f"transition graph of {self.u} is not connected"
                )
            best = max(best, dist[v])  # the last vertex dequeued is the farthest
        return best


def build_graph(u: int, sys: PQSystem,
                enumerator: Optional[ResidueEnumerator] = None) -> TransitionGraph:
    _require_23(sys)
    enumerator = enumerator or ResidueEnumerator(sys)
    members = enumerator.omega(u)
    vertices = tuple(sorted(members, key=lambda pt: pt.parts))
    adjacency = {v: neighbors(v) for v in vertices}
    return TransitionGraph(u, vertices, adjacency)


def connectivity_check(u: int, sys: PQSystem,
                       enumerator: Optional[ResidueEnumerator] = None) -> tuple[bool, int]:
    """(connected, exact diameter) for the graph on Omega(u)."""
    graph = build_graph(u, sys, enumerator)
    if not graph.is_connected():
        return False, -1
    return True, graph.diameter()


def reduce_to_binary(pt: Partition, sys: PQSystem) -> list[Partition]:
    """A move path from ``pt`` to the binary partition of its sum.

    Strategy: take the largest 3-level b and the smallest part 2^a*3^b on it.
    When 2^a*3^(b-1) is absent apply the inverse A split; otherwise the
    inverse B merge (with its run) applies.  Either move reduces the number
    of parts at level b, so the path ends at level 0, the binary partition.
    Returns the successor states; the empty list when ``pt`` is already
    binary.  The length never exceeds ``diameter_bound`` of the sum.
    """
    _require_23(sys)
    path: list[Partition] = []
    guard = 0
    while pt.parts and max(b for _, b in pt.parts) > 0:
        parts = set(pt.parts)
        b = max(d for _, d in parts)
        a = min(x for x, d in parts if d == b)
        if (a, b - 1) not in parts:
            nxt = parts - {(a, b)} | {(a + 1, b - 1), (a, b - 1)}
        else:
            run = []
            j = a + 1
            while (j, b) in parts:
                run.append(j)
                j += 1
            top = a + len(run) + 2
            nxt = parts - {(a, b - 1), (a, b)} - {(x, b) for x in run}
            nxt |= {(x, b - 1) for x in run} | {(top, b - 1)}
        stepped = _sorted_partition(nxt)
        assert stepped is not None, "downward move produced a broken chain"
        path.append(stepped)
        pt = stepped
        guard += 1
        if guard > 10_000_000:  # pragma: no cover - defensive
            raise RuntimeError("reduction did not terminate")
    return path


def random_walk(
    u: int,
    steps: int,
    sys: PQSystem,
    rng: Union[int, random.Random] = 0,
    start: Optional[Partition] = None,
) -> Partition:
    """Lazy random walk: stay with probability 1/2, else a uniform neighbor.

    The stationary law is proportional to vertex degree, not uniform; exact
    uniform generation is the sampler's job.  Starts at the binary partition
    unless told otherwise.
    """
    _require_23(sys)
    if isinstance(rng, int):
        rng = random.Random(rng)
    pt = start if start is not None else binary_partition(u)
    if value(pt, sys) != u:
        raise ValueError("start vertex does not sum to u")
    for _ in range(steps):
        if rng.random() < 0.5:
            continue
        nbrs = sorted(neighbors(pt), key=lambda w: w.parts)
        if nbrs:
            pt = nbrs[rng.randrange(len(nbrs))]
    return pt
