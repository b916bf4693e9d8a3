"""Shortest strictly chained partitions and the exponentiation cost model.

The least number of parts sigma(U) is the min-plus fold of the case split in
``decomposition``: the minimum over the branches of U of sigma(argument)
plus 1 for a branch that adds the part 1 (a scaling branch is free).  The
filter of the one overlapping branch can be ignored here, because the union
of the branch images is the same.  A sparse sigma(U) is one two-row
``sigma_grid`` sweep over the reachable quotients U div (p^a q^b), and a
dense scan is ``sigma_fill`` on a ``bytearray``, one byte per sum and
``NO_SIGMA`` (0x7F) where Omega is empty; sigma(U) <= log2(U) + 1 keeps every
value below 0x7E.  ``histogram`` and ``stats`` read those bytes directly,
and ``scan`` lists them, with math.inf for NO_SIGMA.  A witness is one
``decomposition.descend`` of the cells of one two-row sweep along the first
branch of each cell: the sweep prunes each code to its argmin branches, ties
to the first branch of a cell in the order p, q, 1p, 1q, which makes
witnesses deterministic.  Below a filtered branch into Omega(pv) the descent
drops the p-scaled branch, which is never the argmin there: the descent
enters pv only when sigma(pv) < sigma(v).

A witness doubles as a multiply-few exponentiation schedule: g^U is evaluated
by a Horner walk along the chain, with one p-th or q-th powering per exponent
step of the leading part and one multiplication per extra part.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import compress
from typing import NamedTuple, Optional

from .core import (
    InvariantViolationError,
    Partition,
    PQSystem,
    UnreachableSumError,
    _check_chain,
    value,
)
from .decomposition import NO_SIGMA, descend, sigma_fill, sigma_grid

_INF = math.inf
#: A dense sigma byte as ``scan`` lists it.
_SIGMA_OF = (*range(NO_SIGMA), _INF)
#: 1 at a reachable sum, 0 at NO_SIGMA, as a ``translate`` table.
_REACHED = bytes(int(x != NO_SIGMA) for x in range(256))


class ShortestResult(NamedTuple):
    """sigma(u) with one witness of that length."""

    u: int
    sigma: int
    witness: Partition


class ChainCost(NamedTuple):
    """Operation counts of the Horner evaluation along a chain.

    p_ops and q_ops equal the exponents of the largest part; adds is the
    number of parts minus one.
    """

    p_ops: int
    q_ops: int
    adds: int


class ShortestStats(NamedTuple):
    limit: int
    mean_ratio: float
    histogram: dict[int, int]


class ShortestTable:
    """sigma for one base system; ``table`` holds the values queried so far."""

    def __init__(self, sys: PQSystem) -> None:
        self.sys = sys
        self.table: dict[int, float] = {0: 0, 1: 1}

    def sigma_or_inf(self, u: int) -> float:
        """sigma(u), or infinity when Omega(u) is empty."""
        if u < 0:
            return _INF
        hit = self.table.get(u)
        if hit is None:
            hit = self.table[u] = sigma_grid(u, self.sys).rows[0][0]
        return hit

    def sigma(self, u: int) -> int:
        best = self.sigma_or_inf(u)
        if best == _INF:
            raise UnreachableSumError(
                f"no strictly chained partition of {u} for {self.sys}"
            )
        return int(best)

    def witness(self, u: int) -> ShortestResult:
        """One shortest partition, built by descending the argmin branches.

        One two-row sweep prunes each cell (a, b) to the branches that score
        least, ties to the first: 1 if it adds a part, plus sigma at the cell
        below it.  So the descent takes the first branch of every cell; below
        a filtered branch that is the q side, which the pruning never clears.
        """
        rows, cells, _ = sigma_grid(u, self.sys)
        self.table[u] = rows[0][0]
        best = self.sigma(u)
        parts: list[tuple[int, int]] = []
        descend(cells, 0, 0, False, parts, lambda a, b, branches: branches[0])
        pt = Partition(parts[::-1])
        if value(pt, self.sys) != u or len(pt) != best:
            raise InvariantViolationError("the witness is not a partition of u into sigma(u) parts")
        return ShortestResult(u, best, pt)

    def _dense(self, limit: int) -> bytearray:
        """sigma on 0..limit bottom-up, one byte each (NO_SIGMA where Omega is empty)."""
        if limit < 0:
            raise ValueError("limit must be >= 0")
        arr = bytearray(limit + 1)
        if limit >= 1:
            arr[1] = 1
        sigma_fill(arr, self.sys)
        return arr

    def scan(self, limit: int) -> list[float]:
        """sigma on 0..limit bottom-up (math.inf where Omega is empty)."""
        return list(map(_SIGMA_OF.__getitem__, self._dense(limit)))

    def histogram(self, limit: int) -> dict[int, int]:
        """Histogram of sigma over [2, limit], counted from the dense bytes."""
        return self._counted(limit)[1]

    def _counted(self, limit: int) -> tuple[bytearray, dict[int, int]]:
        """The sigma bytes of [2, limit] and their histogram, one count per value."""
        if limit < 2:
            raise ValueError("limit must be >= 2")
        sigmas = self._dense(limit)
        del sigmas[:2]
        histogram, left, s = {}, len(sigmas) - sigmas.count(NO_SIGMA), 0
        if not left:
            raise UnreachableSumError(f"no reachable sums in [2, {limit}] for {self.sys}")
        while left:  # up to the largest sigma
            if count := sigmas.count(s):
                histogram[s] = count
                left -= count
            s += 1
        return sigmas, histogram

    def stats(self, limit: int) -> ShortestStats:
        """Histogram of sigma over [2, limit] and the mean of 4*sigma/log2(U).

        The mean hovering around 1 reflects the empirical growth rate of
        roughly a quarter of log2(U) parts on average.
        """
        sigmas, histogram = self._counted(limit)
        us = range(2, limit + 1)
        if NO_SIGMA in sigmas:
            us = compress(us, sigmas.translate(_REACHED))
            sigmas = sigmas.replace(bytes((NO_SIGMA,)), b"")
        # a left fold in u order (sum() compensates rounding from Python 3.12 on);
        # one product by 4 at the end is exact, as it commutes with each rounding
        terms = map(operator.truediv, sigmas, map(math.log2, us))
        total = 4.0 * functools.reduce(operator.add, terms, 0.0)
        return ShortestStats(limit, total / len(sigmas), histogram)


def chain_cost(pt: Partition) -> ChainCost:
    """Powering/multiplication counts of the Horner walk for ``pt``."""
    if not pt:
        return ChainCost(0, 0, 0)
    a, b = pt.largest
    return ChainCost(a, b, len(pt) - 1)


def chain_pow(
    g: int,
    u: int,
    modulus: int,
    sys: PQSystem,
    witness: Optional[Partition] = None,
) -> int:
    """g**u mod modulus evaluated along a chained partition of u.

    Walking the chain from the largest part: raise the accumulator by the
    exponent gap to the next part (repeated p-th and q-th powers), multiply
    by g once per additional part, and finish with the exponents of the
    smallest part.  Cost is ``chain_cost`` of the witness.  A witness that
    is not a chain in that order raises ``ChainBreakError`` or
    ``DuplicatePartError``, both ``ValueError``s.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if u < 0:
        raise ValueError("exponent must be >= 0")
    if u == 0:
        return 1 % modulus
    if witness is None:
        witness = ShortestTable(sys).witness(u).witness
    elif value(witness, sys) != u:
        raise ValueError("witness does not sum to the exponent")
    _check_chain(witness)  # the walk reads the parts in descending chain order
    acc = g % modulus
    for (a1, b1), (a2, b2) in zip(witness, witness[1:]):
        for _ in range(a1 - a2):
            acc = pow(acc, sys.p, modulus)
        for _ in range(b1 - b2):
            acc = pow(acc, sys.q, modulus)
        acc = acc * g % modulus
    ak, bk = witness[-1]
    for _ in range(ak):
        acc = pow(acc, sys.p, modulus)
    for _ in range(bk):
        acc = pow(acc, sys.q, modulus)
    return acc
