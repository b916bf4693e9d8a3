"""Exact generation of Omega(U) and count-guided uniform sampling.

Two independent engines produce the full set of strictly chained partitions
of U:

* ``SplitEnumerator`` splits on the presence of a part 1,
      Omega(U)  = Omega*(U) + unit-extended Omega*(U-1),
      Omega*(U) = p-scaled Omega(U/p)  union  q-scaled Omega(U/q),
  deduplicating the (pq-scaled) overlap with a set union; ``core.fill_memo``
  stands in for the recursion, so a deep U needs no Python frames.

* ``ResidueEnumerator`` lists the members of ranks 0 .. W(U) - 1 (the
  recursive method of Nijenhuis and Wilf), at every base, from one
  ``count_grid`` sweep: its rows give the weights, its cell codes the
  branches (``decomposition.CELL_BRANCHES``).  ``unrank`` maps a list of
  ranks to their members, taking them down together through each segment
  that ``decomposition.segments`` yields: each rank's ``descend`` takes at
  each cell the branch whose weight range holds the rank, and stops at the
  segment's end.  It is a bijection from [0, W(U)) onto Omega(U), on a grid
  of any checkpoints.  ``walk`` lists the same members in rank order from a
  grid of every row, stacking each second branch to resume the descent
  there, which shares each prefix between consecutive ranks; ``omega`` is
  the walk as a set, and ``by_value`` the walk as a list sorted once in
  ``value_order``, whose keys are bytes, not tuples of int part values.

``sample_uniform`` unranks uniform draws from [0, W(U)), so every member of
Omega(U) is returned with probability exactly 1/W(U), and no draw is
rejected.  One sweep keeps checkpoint rows placed by their bytes, and each
block of draws (of at most ``_BLOCK_PARTS`` parts, or one draw per checkpoint
row) goes down ``decomposition.segments``, which refolds the rows between
with binomial checkpoints, three folds at most: the rows held grow like the
cube root of the number of rows, not its square root, whatever n is.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import (
    DEFAULT_PARTITION_BUDGET,
    EMPTY_PARTITION,
    BudgetError,
    InvariantViolationError,
    Partition,
    PQSystem,
    UnreachableSumError,
    append_unit,
    fill_memo,
    map_p,
    map_q,
    part_value,
    value,
)
from .decomposition import CellBranch, Grid, count_grid, descend, segments

#: The parts that the members of one block of draws may hold, about 25 MB.
_BLOCK_PARTS = 1 << 18


class OmegaSet:
    """The set Omega(u) together with its sum."""

    __slots__ = ("u", "members")

    def __init__(self, u: int, members: frozenset[Partition]) -> None:
        self.u = u
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.members)

    def sorted_by_value(self, sys: PQSystem) -> list[Partition]:
        """Members ordered by decreasing part values (deterministic output)."""
        return value_order(self.members, self.u, sys)


class SplitEnumerator:
    """Omega(u) from the pair (no part 1 / part 1 removed), through ``fill_memo``:
    one memo maps (True, u) to Omega*(u), the members with no part 1, and
    (False, u) to Omega(u); every set it stores counts against the budget."""

    def __init__(self, sys: PQSystem, budget: int = DEFAULT_PARTITION_BUDGET) -> None:
        self.sys = sys
        self.budget = budget
        self._stored = 0
        empty = frozenset((EMPTY_PARTITION,))  # Omega(0) and Omega*(0)
        self._memo: dict[tuple[bool, int], frozenset] = {(False, 0): empty, (True, 0): empty}

    def _expand(self, key: tuple[bool, int]) -> tuple[tuple, tuple]:
        """The maps applied to the sets that ``key``'s set is made from, and their keys,
        last first: ``fill_memo`` fills the last listed first, as the recursion did."""
        star, v = key
        if not star:  # Omega(v): Omega*(v - 1) with a part 1 appended, and Omega*(v)
            return (append_unit, None), ((True, v - 1), (True, v))
        # Omega*(v): q-scaled Omega(v/q) and p-scaled Omega(v/p)
        scaled = [(scale, (False, v // base)) for scale, base in
                  ((map_q, self.sys.q), (map_p, self.sys.p)) if v % base == 0]
        return tuple(scale for scale, _ in scaled), tuple(dep for _, dep in scaled)

    def _make(self, key: tuple[bool, int], expansion: tuple[tuple, tuple]) -> frozenset[Partition]:
        """The union of the mapped sets, counted against the budget."""
        members: set[Partition] = set()
        for scale, dep in zip(*expansion):
            members.update(map(scale, self._memo[dep]) if scale else self._memo[dep])
        self._stored += len(members)
        if self._stored > self.budget:
            raise BudgetError(f"enumeration memo grew past {self.budget} partitions at u={key[1]}")
        return frozenset(members)

    def omega(self, u: int) -> frozenset[Partition]:
        if u < 0:
            return frozenset()
        return fill_memo(self._memo, (False, u), self._expand, self._make)


class ResidueEnumerator:
    """Omega(u) as the members of ranks 0 .. W(u) - 1, by ``walk``."""

    def __init__(self, sys: PQSystem, budget: int = DEFAULT_PARTITION_BUDGET) -> None:
        self.sys = sys
        self.budget = budget

    def _grid(self, u: int) -> Grid:
        """``count_grid(u, sys, 1)``, once W(u) is known to be within the budget.
        W(u) <= u^beta <= u (criterion 8), so a u past the budget is first checked on a
        sweep that keeps two rows: an over-budget u is refused before any row is kept."""
        for every in (0, 1) if u > self.budget else (1,):
            grid = count_grid(u, self.sys, every)
            w = grid.rows[0][0]  # W(u), the first cell of the first row
            if w > self.budget:
                raise BudgetError(f"Omega({u}) has {w} partitions, past the budget of {self.budget}")
        return grid

    def omega(self, u: int) -> frozenset[Partition]:
        return frozenset(walk(self._grid(u)))

    def omega_set(self, u: int) -> OmegaSet:
        return OmegaSet(u, self.omega(u))

    def by_value(self, u: int) -> list[Partition]:
        """Omega(u) in ``value_order``, sorted from a list of the walk: no set is built."""
        return value_order(walk(self._grid(u)), u, self.sys)


def value_order(members: Iterable[Partition], u: int, sys: PQSystem) -> list[Partition]:
    """``members``, partitions of u, by decreasing tuples of part values.

    A key joins the part values, largest first, as big-endian bytes of u's
    byte length: it orders as the tuple does, in about a fifth of its memory.
    """
    members = list(members)
    width = (u.bit_length() + 7) // 8  # no part exceeds u
    keys = {pair: part_value(pair, sys).to_bytes(width, "big") for pair in set().union(*members)}
    members.sort(key=lambda pt: b"".join(map(keys.__getitem__, pt)), reverse=True)
    return members


def branch_weight(rows: list[list], a: int, b: int, branch: CellBranch) -> int:
    """The members under a branch of the cell (a, b); ``rows[b]`` is W on row b.

    That is W at the cell below; a filtered branch into Omega(pv) weighs
    W(pv) - W(v), W(v) being the p-scaled members that the cell below drops.
    """
    da, db, _, filtered = branch
    weight = rows[b + db][a + da]
    return weight - rows[b + 1][a + 1] if filtered else weight


def unrank(grid: Grid, ranks: Sequence[int]) -> list[Partition]:
    """The members of Omega(u) at ``ranks`` in [0, W(u)); ``grid`` is a ``count_grid(u)``.

    Each member is one ``descend`` of the cells from u to the leaf: at a cell
    with two branches (one of p and 1p, one of q and 1q) it takes the first
    if the rank is below its weight (``branch_weight``), else the second,
    with the rank less that weight.  Below a filtered branch into Omega(pv)
    the cell has no p-scaled branch: the others hold exactly the members
    whose smallest part is not divisible by p.  Distinct ranks give distinct
    members, so the ranks 0 .. W(u) - 1 give all of Omega(u).  The ranks go
    down together, one segment of ``segments`` at a time, right of the least
    column that a descent reads, and each stops at the segment's end.
    """
    rows, cells, _ = grid
    for rank in ranks:
        if not 0 <= rank < rows[0][0]:
            raise ValueError(f"rank {rank} is outside [0, {rows[0][0]})")
    # per rank: the cell and filtered flag its descent resumes from, None
    # once at the leaf, and the parts it added
    at: list[Optional[tuple[int, int, bool]]] = [(0, 0, False)] * len(ranks)
    left = list(ranks)
    parts: list[list[tuple[int, int]]] = [[] for _ in ranks]
    rank = 0

    def pick(a: int, b: int, branches: tuple[CellBranch, ...]) -> CellBranch:
        nonlocal rank
        if len(branches) > 1:
            weight = branch_weight(segment, a, b - top, branches[0])
            if rank >= weight:
                rank -= weight
                return branches[1]
        return branches[0]

    for top, segment in segments(grid, lambda: min((cell[0] for cell in at if cell), default=0)):
        for i, cell in enumerate(at):
            if cell:
                rank = left[i]
                at[i] = descend(cells, *cell, parts[i], pick, top + len(segment) - 1)
                left[i] = rank
        segment = []  # so that two segments are never held at once
        if not any(at):
            break
    return [Partition(member[::-1]) for member in parts]


def walk(grid: Grid) -> Iterator[Partition]:
    """The members of Omega(u) in rank order; ``grid`` is ``count_grid(u, sys, 1)``, every row.

    The i-th member is ``unrank(grid, [i])``, but the walk shares each prefix
    between consecutive ranks: one depth-first walk of the cells, on an
    explicit stack, taking the branches of a cell in order and skipping
    those of zero weight, so every cell it enters holds a member.  Each
    member is one ``descend``, whose ``pick`` takes the first branch and
    stacks the second; one parts list serves the whole walk, cut back to a
    cell's depth when the walk resumes below it.
    """
    rows, cells, _ = grid
    w = rows[0][0]  # the weight of the cell being descended
    if not w:
        return
    parts: list[tuple[int, int]] = []  # the parts added on the way down
    # each entry is a cell (a, b), whether the branch into it was filtered,
    # its weight, the length of ``parts`` above it, and the part its branch adds
    stack: list[tuple] = [(0, 0, False, w, 0, None)]

    def pick(a: int, b: int, branches: tuple[CellBranch, ...]) -> CellBranch:
        nonlocal w
        branch = branches[0]
        if len(branches) > 1:
            # the cell's weight w is the sum of its two branches' weights
            first = branch_weight(rows, a, b, branch)
            if not first:
                return branches[1]
            if first < w:
                da, db, unit, filtered = branches[1]  # taken after the first's members
                stack.append((a + da, b + db, filtered, w - first, len(parts),
                              (a, b) if unit else None))
                w = first
        return branch

    while stack:
        a, b, filtered, w, depth, part = stack.pop()
        del parts[depth:]
        if part:
            parts.append(part)
        descend(cells, a, b, filtered, parts, pick)
        yield Partition(parts[::-1])


def sample_uniform(u: int, sys: PQSystem, rng: Union[int, random.Random] = 0,
                   n: int = 1) -> Iterator[Partition]:
    """Draw n members of Omega(u), each with probability exactly 1/W(u).

    Unless n = 0, one sweep keeps the checkpoint rows of
    ``count_grid(u, sys, None)``.  The ranks, one ``rng.randrange(W(u))``
    each, are drawn in blocks whose members hold at most ``_BLOCK_PARTS``
    parts, or of one draw per checkpoint row if that is more; each block is
    unranked together by ``unrank`` and yielded before the next is drawn.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(rng, int):
        rng = random.Random(rng)
    if not n:
        return iter(())
    grid = count_grid(u, sys, None)
    if not grid.rows[0][0]:
        raise UnreachableSumError(f"no strictly chained partition of {u} for {sys}")
    return _draws(u, sys, grid, rng, n)


def _draws(u: int, sys: PQSystem, grid: Grid, rng: random.Random, n: int) -> Iterator[Partition]:
    w = grid.rows[0][0]
    # a member has at most u.bit_length() parts, each at least twice the last
    block = max(len(grid.rows), _BLOCK_PARTS // (u.bit_length() or 1))
    for start in range(0, n, block):
        for pt in unrank(grid, [rng.randrange(w) for _ in range(min(block, n - start))]):
            if value(pt, sys) != u:
                raise InvariantViolationError("a drawn member does not sum to u")
            yield pt
