"""The residue decomposition of Omega(U), as tables built once per base system.

Omega(U), for U >= 2, is the disjoint union of branch images: a branch
``(labels, mul, off, filtered)`` of the row of r = U mod ``modulus`` maps
Omega(mul*v + off), v = U div ``modulus``, into Omega(U) by applying its
labels, last label first.  A filtered branch keeps only the members whose
smallest part is not divisible by p.  Counting, sigma, enumeration, sampling
and tree words all fold these tables; sampling, the sigma witness and tree
decoding take one path of it with ``Decomposition.descend``.

The general table (any bases, modulus pq) splits on the part 1: a partition
without it is p-scaled or q-scaled, and one with it is the part 1 (label
``1``, ``append_unit``) plus such a partition of U - 1.  So a row has ``p``
when p | r, ``q`` when q | r, ``1p`` when p | r - 1 and ``1q`` when q | r - 1.
For r in {0, 1} the q-scaled branch is filtered, since its members divisible
by pq are already p-scaled; it holds W(pv) - W(v) members.  Its argument pv
lies in a row whose first branch, the p-scaled Omega(v), holds exactly the
members of Omega(pv) whose smallest part is divisible by p, so the filtered
members are those of the other branches of that row.

The binary table (p = 2, modulus 2q) applies the +1 map to the block of
powers of 2 (``map_one_strict``), which keeps every branch disjoint and
unfiltered.  Its rows are the classes r in {0, q}: ``q`` and ``1``; r = 1:
``1``; r = q + 1: ``2`` and ``1q``; other even r: ``2``; other odd r: ``12``.
Its labels spell the tree words of ``codec``.

Every branch argument of x in the general table is x div p or x div q, and the
filtered correction is x div pq, so every node below U is a grid quotient
U div (p^a q^b); ``grid_sweep`` folds the table over them row by row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

from .core import (
    InvalidSystemError,
    Partition,
    PQSystem,
    append_unit,
    map_one_strict,
    map_p,
    map_q,
)

Lift = Callable[[Partition], Partition]
V = TypeVar("V")


class Branch(NamedTuple):
    """Labels applied to Omega(mul*v + off), with the smallest-part filter."""

    labels: str
    mul: int
    off: int
    filtered: bool


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Branch rows indexed by U mod ``modulus``; ``lifts`` maps labels to maps."""

    modulus: int
    rows: tuple[tuple[Branch, ...], ...]
    lifts: dict[str, Lift]

    def descend(self, u: int, choose: Callable[[int, tuple[Branch, ...]], Branch]) -> Partition:
        """Walk from u to a leaf and lift the leaf back up along the path.

        At each node x > 1, ``choose(x div modulus, row of x)`` returns the
        branch to take.  The walk is a loop, not a recursion; the lift replays
        the labels on exponent offsets, so a letter costs O(1) amortized.
        """
        path: list[str] = []
        x = u
        while x > 1:
            v, r = divmod(x, self.modulus)
            branch = choose(v, self.rows[r])
            path.append(branch.labels)
            x = branch.mul * v + branch.off
        stored: list[tuple[int, int]] = []  # the parts (a - da, b - db) with b > 0
        block, da, db = [0] * x, 0, 0  # block: a - da of the parts (a, 0), largest first
        for letter in reversed("".join(path)):
            if letter == "1":  # the part 1; it carries only in the binary table
                a = -da
                while block and block[-1] == a:
                    block.pop()
                    a += 1
                block.append(a)
            elif letter == "q":
                stored += [(a, -db) for a in block]
                block, db = [], db + 1
            else:
                da += 1
        parts = [(a + da, b + db) for a, b in stored] + [(a + da, 0) for a in block]
        return Partition(tuple(parts))


def grid_sweep(u: int, sys: PQSystem, memo: dict[int, V],
               fold: Callable[[int, int], V]) -> V:
    """Fill ``memo`` at every node of the general table below u; return memo[u].

    ``memo`` holds 0, 1 and, with any node, all nodes below it.  Top-down, row
    b lists the nodes it lacks, a ascending: each q-child of row b - 1, then
    its p-children up to the next one.  Bottom-up, each node gets
    ``fold(x div pq, x mod pq)`` after its children; a value listed in two
    rows is folded at its last listing.
    """
    p, q, pq = sys.p, sys.q, sys.pq
    order: list[int] = []
    starts = [u]
    while starts:
        below: list[int] = []
        for x, stop in zip(starts, starts[1:] + [-1]):
            while x != stop and x not in memo:
                order.append(x)
                y, r = divmod(x, q)
                if r <= 1:
                    below.append(y)
                x, r = divmod(x, p)
                if r > 1:
                    break
        starts = below
    for x in reversed(order):
        if x not in memo:
            memo[x] = fold(*divmod(x, pq))
    return memo[u]


def admits(branch: Branch, pt: Partition) -> bool:
    """True unless ``branch`` is filtered and the smallest part of ``pt`` is divisible by p."""
    return not branch.filtered or pt.parts[-1][0] == 0


def _decomposition(modulus: int, rows: list[tuple[Branch, ...]],
                   maps: dict[str, Lift]) -> Decomposition:
    lifts: dict[str, Lift] = {}
    for branch in {b for row in rows for b in row}:
        fns = [maps[ch] for ch in branch.labels]
        lifts[branch.labels] = fns[0] if len(fns) == 1 else _compose(*fns)
    return Decomposition(modulus, tuple(rows), lifts)


def _compose(outer: Lift, inner: Lift) -> Lift:
    return lambda pt: outer(inner(pt))


@functools.lru_cache(maxsize=128)
def general_table(sys: PQSystem) -> Decomposition:
    """The table of Omega(U) by U mod pq, for any bases."""
    p, q = sys.p, sys.q
    rows = []
    for r in range(sys.pq):
        row = []
        if r % p == 0:
            row.append(Branch("p", q, r // p, False))
        if r % q == 0:
            row.append(Branch("q", p, r // q, r % p == 0))
        if (r - 1) % p == 0:
            row.append(Branch("1p", q, (r - 1) // p, False))
        if (r - 1) % q == 0:
            row.append(Branch("1q", p, (r - 1) // q, (r - 1) % p == 0))
        rows.append(tuple(row))
    return _decomposition(sys.pq, rows, {"p": map_p, "q": map_q, "1": append_unit})


@functools.lru_cache(maxsize=128)
def binary_table(sys: PQSystem) -> Decomposition:
    """The disjoint table of Omega(U) by U mod 2q, for p = 2."""
    if sys.p != 2:
        raise InvalidSystemError("the binary decomposition requires p = 2")
    q = sys.q
    rows = []
    for r in range(2 * q):
        if r % q == 0:
            rows.append((Branch("q", 2, r // q, False), Branch("1", 2 * q, r - 1, False)))
        elif r == 1:
            rows.append((Branch("1", 2 * q, 0, False),))
        elif r == q + 1:
            rows.append((Branch("2", q, r // 2, False), Branch("1q", 2, 1, False)))
        elif r % 2 == 0:
            rows.append((Branch("2", q, r // 2, False),))
        else:
            rows.append((Branch("12", q, (r - 1) // 2, False),))
    one = functools.partial(map_one_strict, sys=sys)
    return _decomposition(2 * q, rows, {"2": map_p, "q": map_q, "1": one})


def residue_table(sys: PQSystem) -> Decomposition:
    """The table that enumeration and sampling walk: binary when p = 2."""
    return binary_table(sys) if sys.p == 2 else general_table(sys)
