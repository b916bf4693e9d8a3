"""The symmetric transition graph on Omega(U) for bases (2, 3).

Two move families connect partitions of the same sum:

* Family A (merge, "2+1=3"): for the part 2^a*3^b with maximal a at its
  level b, if 2^(a-1)*3^b is also present, replace the two parts by
  2^(a-1)*3^(b+1).

* Family B (split with carry): if 2^(a-1)*3^b is absent, let C be the
  maximal contiguous run 2^(a-i)*3^b, i = 2..n, and c = a-2 when C is empty,
  c = a-n-1 otherwise.  When c >= 0 and no part 2^(c+1)*3^d with d < b
  exists, multiply C by 3, remove 2^a*3^b and add 2^c*3^b and 2^c*3^(b+1).

Parts are kept in chain order, so each move rewrites a slice of the tuple
and its chain check looks only at the parts next to that slice (a B-candidate
can break the chain against a lower level, in which case it simply is not a
move).  Neighbor sets add the inverses of both families, each checked on the
parts next to it with no move replayed (see ``_inverses``), so the relation
is symmetric.  Every forward move stays in Omega(U), so ``build_graph`` writes
the forward moves and their reversals once, as the neighbour indices ``nbrs``
that ``diameter``, ``edge_count`` and ``graph --dot`` read.  ``diameter`` is
exact by iFUB; its first breadth-first search raises InvariantViolationError
on a disconnected graph, which is where the CLI and the criteria read connectivity.

The graph is connected: repeatedly applying the downward inverse moves to the
highest 3-level reaches the binary partition in at most
log(U)^2 / (log 2 * log 3) steps, which bounds the diameter.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .core import (
    InvalidSystemError,
    InvariantViolationError,
    Partition,
    PQSystem,
    _check_chain,
    binary_partition,
    value,
)


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


def forward_moves(pt: Partition) -> set[Partition]:
    """All valid family A and family B moves out of ``pt``, in one pass.

    The parts of one level are consecutive in chain order, and the first of
    them is the top part (a, b).  A merge always leaves a chain.  A split
    leaves one iff the part after the run has exponent of 2 at most c, which
    also rules out every part 2^(c+1)*3^d with d < b.
    """
    n = len(pt)
    out: set[Partition] = set()
    i = 0
    while i < n:
        a, b = pt[i]
        j = i + 1
        if j < n and pt[j] == (a - 1, b):
            # family A: merge 2^a*3^b + 2^(a-1)*3^b into 2^(a-1)*3^(b+1)
            out.add(Partition(pt[:i] + ((a - 1, b + 1),) + pt[j + 1:]))
        else:
            # family B: split 2^a*3^b, carrying the run pt[i+1:j] below it
            c = a - 2
            while j < n and pt[j] == (c, b):
                c -= 1
                j += 1
            if c >= 0 and (j == n or pt[j][0] <= c):
                lifted = tuple((x, b + 1) for x in range(a - 2, c, -1))
                out.add(Partition(pt[:i] + lifted + ((c, b + 1), (c, b)) + pt[j:]))
        while j < n and pt[j][1] == b:
            j += 1
        i = j
    return out


def _inverses(pt: Partition) -> Iterator[tuple[int, Partition]]:
    """The partitions that move to ``pt``, each after the index i of the part it rewrites.

    An inverse changes the number of parts, so only one forward move can undo
    it, and on a chain that move always applies: an inverse is a neighbor iff
    it is a chain, which only the parts next to the change can break.  At most
    one inverse rewrites a part, and none a part followed by one of its level.
    """
    n = len(pt)
    for i, (alpha, beta) in enumerate(pt):
        after = pt[i + 1] if i + 1 < n else None
        # inverse A: split (alpha, beta) into (alpha+1, beta-1) and (alpha, beta-1);
        # a chain iff the part before has a larger a and the one after sits lower
        if beta and (i == 0 or pt[i - 1][0] > alpha) and (
                after is None or (after[1] < beta and after != (alpha, beta - 1))):
            split = ((alpha + 1, beta - 1), (alpha, beta - 1))
            yield i, Partition(pt[:i] + split + pt[i + 1:])
        # inverse B: (c, b+1), (c, b) with the run (c+1, b+1), ... before them
        # return to (top, b) and the run at level b; a chain iff the part
        # before the run has a >= top
        elif after == (alpha, beta - 1):
            h = i
            while h and pt[h - 1] == (alpha + i - h + 1, beta):
                h -= 1
            top = alpha + i - h + 2
            if h == 0 or pt[h - 1][0] >= top:
                lowered = ((top, beta - 1),) + tuple(
                    (x, beta - 1) for x in range(top - 2, alpha, -1))
                yield i, Partition(pt[:h] + lowered + pt[i + 2:])


def neighbors(pt: Partition) -> frozenset[Partition]:
    """Neighbor set of ``pt`` in the transition graph of its sum: the forward
    moves plus the ``_inverses``, the partitions that move to ``pt``.

    ``pt`` must be a chain.  It is not checked here, since this is the
    per-step call of ``random_walk``, which checks its start once.
    """
    out = forward_moves(pt)
    for _, nxt in _inverses(pt):
        out.add(nxt)
    return frozenset(out)


def _bfs(nbrs: Sequence[Sequence[int]], start: int) -> tuple[list[int], list[int]]:
    """(distance list, visiting order) of a BFS on vertex indices; -1 is unreached."""
    dist = [-1] * len(nbrs)
    dist[start] = 0
    order = [start]
    for v in order:  # the list grows while it is read: a queue without pops
        d = dist[v] + 1
        for w in nbrs[v]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
    return dist, order


class TransitionGraph(NamedTuple):
    """Sorted vertices Omega(u); ``nbrs[i]``, the sorted indices of the neighbours of vertex i."""

    u: int
    vertices: tuple[Partition, ...]
    nbrs: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        """The number of edges: half the degree sum."""
        return sum(map(len, self.nbrs)) // 2

    def diameter(self) -> int:
        """Exact diameter by iFUB on vertex indices (graph must be connected).

        iFUB (Crescenzi, Grossi, Habib, Lanzi & Marino, TCS 514, 2013): a
        double sweep gives a lower bound and a central vertex, the midpoint of
        a long shortest path.  Every pair within distance i-1 of the centre
        is at most 2(i-1) apart, so its distance levels are searched from the
        outside in, until the largest eccentricity found reaches the bound of
        the levels left.
        """
        nbrs = self.nbrs
        if not nbrs:
            return 0
        ecc: dict[int, int] = {}

        def sweep(start: int) -> tuple[list[int], list[int]]:
            dist, order = _bfs(nbrs, start)
            ecc[start] = dist[order[-1]]  # the last vertex reached is the farthest
            return dist, order

        _, order = sweep(0)
        if len(order) < len(nbrs):
            raise InvariantViolationError(f"transition graph of {self.u} is not connected")
        a = order[-1]
        dist_a, order = sweep(a)
        mid = order[-1]  # walk back from the far end to halfway along a shortest path
        while dist_a[mid] > ecc[a] // 2:
            mid = next(w for w in nbrs[mid] if dist_a[w] == dist_a[mid] - 1)
        dist_mid, order = sweep(mid)
        fringe: list[list[int]] = [[] for _ in range(ecc[mid] + 1)]
        for v in order:
            fringe[dist_mid[v]].append(v)
        lower = max(ecc.values())
        for i in range(ecc[mid], 0, -1):
            if lower >= 2 * i:
                break
            for v in fringe[i]:
                if v not in ecc:
                    sweep(v)
                lower = max(lower, ecc[v])
        return lower


def build_graph(u: int, sys: PQSystem) -> TransitionGraph:
    """The transition graph on Omega(u): the forward moves of each vertex and
    their reversals, on the indices of the sorted vertices.

    Omega(u) comes from ``ResidueEnumerator`` at its default budget, which
    W(u) is checked against before any member is built, and, for a u past
    the budget, from a two-row sweep before any row of W is kept.
    """
    from .enumeration import ResidueEnumerator  # here alone: the moves and walks never enumerate
    _require_23(sys)
    vertices = tuple(sorted(ResidueEnumerator(sys).omega(u)))
    index = {v: i for i, v in enumerate(vertices)}
    linked: list[set[int]] = [set() for _ in vertices]
    for i, v in enumerate(vertices):
        for j in map(index.__getitem__, forward_moves(v)):
            linked[i].add(j)
            linked[j].add(i)
    return TransitionGraph(u, vertices, tuple(tuple(sorted(js)) for js in linked))


def reduce_to_binary(pt: Partition, sys: PQSystem) -> list[Partition]:
    """A move path from ``pt`` to the binary partition of its sum.

    Strategy: take the last part 2^a*3^b of the highest 3-level b, in chain
    order, and apply its inverse move: the A split when 2^a*3^(b-1) is
    absent, else the B merge with its run.  Either move reduces the number
    of parts at level b, so the path ends at level 0, the binary partition.
    Returns the successor states; the empty list when ``pt`` is already
    binary.  The length never exceeds ``diameter_bound`` of the sum.  A
    ``pt`` that is no chain raises ChainBreakError or DuplicatePartError.
    """
    _require_23(sys)
    _check_chain(pt)
    path: list[Partition] = []
    while pt and pt[0][1]:
        # no inverse rewrites a part followed by one of its level, so the first
        # is at the last part of the top level if any applies there
        i, stepped = next(_inverses(pt), (-1, None))
        if stepped is None or pt[i][1] < pt[0][1]:
            raise InvariantViolationError(f"no inverse move at the last part of {pt}'s top level")
        path.append(stepped)
        pt = stepped
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
    unless told otherwise; a ``start`` that is no chain raises
    ChainBreakError or DuplicatePartError.
    """
    _require_23(sys)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if isinstance(rng, int):
        rng = random.Random(rng)
    pt = start if start is not None else binary_partition(u)
    _check_chain(pt)
    if value(pt, sys) != u:
        raise ValueError("start vertex does not sum to u")
    for _ in range(steps):
        if rng.random() < 0.5:
            continue
        nbrs = sorted(neighbors(pt))
        if nbrs:
            pt = nbrs[rng.randrange(len(nbrs))]
    return pt
