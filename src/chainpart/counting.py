"""Counting strictly chained partitions: W(U) = |Omega(U)| three ways.

Three independent engines compute the same function so that they can
cross-validate each other and the brute-force oracle:

* ``CaseTableCounter`` -- the ``auto`` engine at every base: the W rule of
  the case split on U mod pq, as the ``decomposition`` module docstring
  writes it out.  A sparse W(U) is one ``count_grid`` row sweep over the
  reachable quotients U div (p^a q^b); a dense scan is ``count_fill``, on
  32-bit lanes, W < 2^31 below the refused limit 2^39 (see ``scan``).

* ``HalvingCounter`` -- the p = 2 specialization, kept as a cross-check,
      W(qU)   = W(U) + W(qU-1)
      W(qU+1) = W(U) + W(qU/2 - 1)        (U even)
      W(qU+1) = W(U) + W((qU+1)/2)        (U odd)
      W(qU+r) = W(floor((qU+r)/2))        (2 <= r <= q-1)

* ``DirectSumCounter`` -- stratification by the pure-power amount,
      W(U) = Wp(U) + W(U/q) + sum_c delta(c, U) * W(floor(U / (p^c q)))
  where Wp(n) says whether n has only digits 0 and 1 in base p, and
  delta(c, U) = 1 iff floor(U/p^c) = 1 mod q and Wp(U mod p^c) = 1.
  Its one acceleration is the digit break: the sum stops at the first
  base-p digit of U past 1, after which every delta vanishes.

All engines use exact integer arithmetic and evaluate with loops, not
recursion, so deeply chained arguments cannot overflow the
interpreter recursion limit.  W(x) = 0 for any x outside the naturals; inside
the recurrences this shows up as divisibility checks, never as rationals.
"""

from __future__ import annotations

from array import array

from .core import InvalidSystemError, PQSystem, fill_memo
from .decomposition import count_fill, count_grid

Expansion = tuple[int, tuple[int, ...]]

LANE_LIMIT = 1 << 39  # the first limit ``CountTable.scan`` refuses


def digits_zero_one(n: int, base: int) -> bool:
    """True when n >= 0 is a sum of distinct powers of ``base``.

    Equivalently, the base-``base`` digits of n are all 0 or 1; such a
    partition is unique, so the associated count is the 0/1 indicator.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if base == 2 or n < 0:  # every n >= 0 is a sum of distinct powers of 2
        return n >= 0
    while n:
        if n % base > 1:
            return False
        n //= base
    return True


class CountTable:
    """Memoized table for one counting engine; subclasses define the rule.

    ``table`` maps U to W(U); its entries are exact and never rewritten.
    """

    def __init__(self, sys: PQSystem) -> None:
        self.sys = sys
        self.table: dict[int, int] = {0: 1, 1: 1}

    def _expand(self, u: int) -> Expansion:
        """Return (constant, deps), all deps below u: W(u) is the constant plus W at each dep."""
        raise NotImplementedError

    def w(self, u: int) -> int:
        """W(u): the number of strictly chained partitions of u."""
        if u < 0:
            return 0
        hit = self.table.get(u)
        return hit if hit is not None else self._sparse(u)

    def _sparse(self, u: int) -> int:
        """Memoize W at u, which ``table`` lacks, and at every argument it needs."""
        table = self.table
        get = table.__getitem__
        return fill_memo(table, u, self._expand, lambda _, e: e[0] + sum(map(get, e[1])))

    def w_star(self, u: int) -> int:
        """W*(u): partitions of u with no part 1, from the W memo; W*(0) = 1 by convention."""
        if u < 0:
            return 0
        total = 0
        if u % self.sys.p == 0:
            total += self.w(u // self.sys.p)
        if u % self.sys.q == 0:
            total += self.w(u // self.sys.q)
        if u % self.sys.pq == 0:
            total -= self.w(u // self.sys.pq)
        return total

    def scan(self, limit: int) -> array:
        """W on 0..limit, bottom-up, as an ``array('I')``; independent of the sparse memo.

        One unsigned 32-bit lane per u: W(u) <= u^beta with beta <= 0.79, so
        W < 2^31 and a lane sum P + Q < 2^32 for every u below LANE_LIMIT =
        2^39; a limit at or past it is refused before anything is allocated.
        """
        if limit < 0:
            raise ValueError("limit must be >= 0")
        if limit >= LANE_LIMIT:
            raise ValueError("limit must be below 2^39, where W fits a 32-bit lane")
        arr = array("I", bytes(4)) * (limit + 1)
        arr[0] = 1
        if limit >= 1:
            arr[1] = 1
        self._fill(arr)
        return arr

    def _fill(self, arr: array) -> None:
        """Fill arr[2:] given arr[0] = arr[1] = 1, in increasing order.

        Subclasses may override this with a faster dense loop.
        """
        expand = self._expand
        for v in range(2, len(arr)):
            const, deps = expand(v)
            arr[v] = const + sum(map(arr.__getitem__, deps))


class CaseTableCounter(CountTable):
    """General engine: the W rule of the case split on U mod pq, as the
    ``decomposition`` module docstring writes it out."""

    def _sparse(self, u: int) -> int:
        """One two-row sweep; ``table`` keeps u alone, not the cells below it."""
        w = self.table[u] = count_grid(u, self.sys).rows[0][0]
        return w

    def _fill(self, arr: array) -> None:
        count_fill(arr, self.sys)


class HalvingCounter(CountTable):
    """p = 2 engine: every step divides the argument by q or (nearly) by 2."""

    def __init__(self, sys: PQSystem) -> None:
        if sys.p != 2:
            raise InvalidSystemError("the halving rules require p = 2")
        super().__init__(sys)

    def _expand(self, u: int) -> Expansion:
        q = self.sys.q
        k, r = divmod(u, q)
        if r == 0:
            return 0, (k, u - 1)
        if r == 1:
            if k % 2 == 0:
                return 0, (k, q * k // 2 - 1)
            return 0, (k, u // 2)
        return 0, (u // 2,)


class DirectSumCounter(CountTable):
    """Direct engine: sum over the sizes of the pure-power block.

    One result-neutral acceleration keeps the sum short: once a base-p digit
    of U exceeds 1, every later indicator vanishes, so the sum stops there.
    """

    def _expand(self, u: int) -> Expansion:
        p, q = self.sys.p, self.sys.q
        const = 1 if digits_zero_one(u, p) else 0
        deps: list[int] = []
        if u % q == 0:
            deps.append(u // q)
        # v = u div p^c; v > q is p^c <= u div (q + 1), and v div q is u div (p^c q)
        v = u
        while v > q:
            if v % q == 1:
                deps.append(v // q)
            if v % p > 1:
                break
            v //= p
        return const, tuple(deps)


#: The engines by name, in ``all_counters`` order, for ``make_counter`` and ``count --method all``.
ENGINES = {"cases": CaseTableCounter, "halving": HalvingCounter, "direct": DirectSumCounter}

#: Other spellings of the engine names: ``auto``, and those of the CLI contract.
METHOD_ALIASES = {"auto": "cases", "general": "cases", "p2": "halving", "theorem2": "direct"}


def make_counter(sys: PQSystem, method: str = "auto") -> CountTable:
    """Build a counting engine; ``auto`` is the cell rule at every base."""
    engine = ENGINES.get(METHOD_ALIASES.get(method, method))
    if engine is None:
        raise ValueError(f"unknown counting method {method!r}")
    return engine(sys)


def all_counters(sys: PQSystem) -> list[CountTable]:
    """One instance of every engine applicable to ``sys``: halving needs p = 2."""
    return [engine(sys) for name, engine in ENGINES.items() if name != "halving" or sys.p == 2]
