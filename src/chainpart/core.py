"""Strictly chained two-base partitions: base systems, the partition type,
the maps that scale by p or q or append the part 1, the JSON form, the memo
walk ``fill_memo`` of the recurrences off the cell grid (the halving and direct
counters, ``SplitEnumerator``, ``TreeLanguage``), and the brute-force oracle,
one explicit-stack walk over every chain (``iter_chains``) that
``brute_force_enumerate`` and ``chain_census`` read.  Every result record of
the package, ``PQSystem`` among them, is a ``NamedTuple``.

A (p,q)-part is an integer p^a * q^b for coprime bases p, q >= 2.  A strictly
chained (p,q)-ary partition of U is a set of distinct parts summing to U in
which every part divides the next larger one.  Because gcd(p, q) = 1, the
divisibility chain is equivalent to the exponent pairs (a, b) forming a chain
in N^2 under the componentwise order.

Partitions are stored as tuples of exponent pairs in decreasing part-value
order; the empty tuple is the unique partition of 0.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

#: Largest U accepted by the brute-force enumerator unless overridden.
DEFAULT_ENUMERATION_CEILING = 10**7
#: Default cap on the partitions an enumerator builds: the members of one
#: Omega(U) for ``ResidueEnumerator``, all memo entries for ``SplitEnumerator``.
DEFAULT_PARTITION_BUDGET = 2_000_000

_DECIMAL = re.compile(r"-?[0-9]+")


class ChainPartError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSystemError(ChainPartError, ValueError):
    """The base pair (p, q) is unusable (non-coprime, too small, equal)."""


class PartitionError(ChainPartError, ValueError):
    """A multiset of parts is not a strictly chained partition."""


class NonSmoothPartError(PartitionError):
    """A part is not of the form p^a * q^b."""


class DuplicatePartError(PartitionError):
    """A part value occurs more than once."""


class ChainBreakError(PartitionError):
    """Two parts are incomparable under divisibility."""


class UnreachableSumError(ChainPartError, ValueError):
    """No strictly chained partition of the requested sum exists."""


class BudgetError(ChainPartError, RuntimeError):
    """An enumeration exceeded its configured resource budget."""


class MalformedWordError(ChainPartError, ValueError):
    """A word does not belong to the codec language."""


class InvariantViolationError(ChainPartError, RuntimeError):
    """A property that should hold unconditionally was observed to fail."""


class PQSystem(NamedTuple):
    """Validated coprime base pair with precomputed modular inverses.

    k0 = p^(-1) mod q and l0 = q^(-1) mod p.  The pair (k0, p - l0) is the
    unique solution of k*p - l*q = 1 with 0 < k < q and 0 < l < p; besides
    r in {0, 1}, the case split in ``decomposition`` has two branches
    exactly at the residues r = p*k0 and r = q*l0.
    """

    p: int
    q: int
    k0: int
    l0: int

    @property
    def pq(self) -> int:
        return self.p * self.q

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def make_system(p: int, q: int) -> PQSystem:
    """Validate (p, q) and compute the modular inverses k0, l0."""
    if not isinstance(p, int) or not isinstance(q, int):
        raise InvalidSystemError("bases must be integers")
    if p < 2 or q < 2:
        raise InvalidSystemError(f"bases must be >= 2, got ({p},{q})")
    if p == q:
        raise InvalidSystemError("bases must be distinct")
    if math.gcd(p, q) != 1:
        raise InvalidSystemError(f"bases must be coprime, gcd({p},{q}) = {math.gcd(p, q)}")
    k0 = pow(p, -1, q)
    l0 = pow(q, -1, p)
    if k0 * p - (p - l0) * q != 1:
        raise InvalidSystemError("inverse computation failed")  # unreachable
    return PQSystem(p, q, k0, l0)


class Partition(tuple):
    """A strictly chained partition: its exponent pairs in decreasing order.

    The pair ``(a, b)`` stands for the part p^a * q^b.  Consecutive pairs
    satisfy a[i+1] <= a[i] and b[i+1] <= b[i] with at least one strict, so
    every part divides its predecessor.  The empty partition is ``Partition()``.
    A partition is the tuple of its pairs, and equals a plain tuple of them.
    """

    __slots__ = ()

    @property
    def parts(self) -> "Partition":
        """The exponent pairs: the partition itself."""
        return self

    @property
    def has_unit(self) -> bool:
        """True when the part 1 (exponents (0, 0)) is present."""
        return bool(self) and self[-1] == (0, 0)

    @property
    def largest(self) -> tuple[int, int]:
        return self[0]

    @property
    def smallest(self) -> tuple[int, int]:
        return self[-1]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Partition":
        """Build a partition from exponent pairs in any order, verifying it."""
        items = [(int(a), int(b)) for a, b in pairs]
        for a, b in items:
            if a < 0 or b < 0:
                raise PartitionError(f"negative exponent in ({a},{b})")
        # On a chain the exponent sum strictly decreases with the part value.
        items.sort(key=lambda ab: (ab[0] + ab[1], ab[0]), reverse=True)
        _check_chain(items)
        return cls(items)


def _check_chain(desc_pairs: list[tuple[int, int]]) -> None:
    for (a1, b1), (a2, b2) in zip(desc_pairs, desc_pairs[1:]):
        if (a1, b1) == (a2, b2):
            raise DuplicatePartError(f"duplicate part with exponents ({a1},{b1})")
        if a2 > a1 or b2 > b1:
            raise ChainBreakError(
                f"parts with exponents ({a1},{b1}) and ({a2},{b2}) are not chained"
            )


EMPTY_PARTITION = Partition()


def part_value(pair: tuple[int, int], sys: PQSystem) -> int:
    a, b = pair
    return sys.p**a * sys.q**b


def value(pt: Partition, sys: PQSystem) -> int:
    """Sum of the part values; the empty partition sums to 0.

    By Horner's rule along the chain: from the largest part down, each part
    over the next is p^da * q^db with small exponents, so the sum of the parts
    over the smallest is ``total = total * p^da * q^db + 1``, one small
    multiplication per part, and the smallest part is multiplied in once.
    Pairs that do not descend (not a chain) are summed one power at a time.
    """
    if not pt:
        return 0
    p, q = sys.p, sys.q
    total = 1
    a, b = pt[0]
    for a1, b1 in itertools.islice(pt, 1, None):
        if a1 > a or b1 > b:
            return sum(p**a * q**b for a, b in pt)
        total = total * (p ** (a - a1) * q ** (b - b1)) + 1
        a, b = a1, b1
    return total * p**a * q**b


def factor_value(v: int, sys: PQSystem) -> Optional[tuple[int, int]]:
    """Factor v as p^a * q^b, or None if v has another prime factor."""
    if v < 1:
        return None
    exps = [0, 0]
    for k, base in enumerate((sys.p, sys.q)):
        # square up while base^(2^i) divides v, then divide from the top down:
        # O(log a) big-integer divisions for the exponent a instead of a
        powers = [base]
        while v % powers[-1] == 0:
            powers.append(powers[-1] * powers[-1])
        for i in range(len(powers) - 2, -1, -1):
            if v % powers[i] == 0:
                v //= powers[i]
                exps[k] += 1 << i
    return (exps[0], exps[1]) if v == 1 else None


def validate(values: Iterable[int], sys: PQSystem) -> Partition:
    """Check a multiset of part values and return the sorted partition.

    Raises NonSmoothPartError, DuplicatePartError or ChainBreakError with the
    offending parts named; accepts the empty multiset (partition of 0).

    The values are valid exactly when the smallest is p^a * q^b and each
    value over the next smaller one is an integer p^i * q^j > 1, so only the
    smallest value and those small ratios are factored, and the exponent
    pairs are their running sums.  When a step fails, each value is factored
    on its own in input order, so the first non-smooth value in the input is
    the one named.
    """
    values = list(values)
    pairs = _chain_by_ratios(values, sys)
    if pairs is not None:
        return Partition(pairs)
    decorated = []
    for v in values:
        v = int(v)
        pair = factor_value(v, sys)
        if pair is None:
            raise NonSmoothPartError(f"{v} is not of the form {sys.p}^a*{sys.q}^b")
        decorated.append((v, pair))
    decorated.sort(reverse=True)
    for (v1, _), (v2, _) in zip(decorated, decorated[1:]):
        if v1 == v2:
            raise DuplicatePartError(f"part {v1} occurs more than once")
        if v1 % v2 != 0:
            raise ChainBreakError(f"{v2} does not divide {v1}")
    return Partition(pair for _, pair in decorated)


def _chain_by_ratios(values: list, sys: PQSystem) -> Optional[tuple[tuple[int, int], ...]]:
    """The exponent pairs of a valid multiset of values, largest first, else None."""
    try:
        desc = sorted(map(int, values), reverse=True)
    except (TypeError, ValueError, OverflowError):  # the per-value loop raises it in place
        return None
    if not desc:
        return ()
    pair = factor_value(desc[-1], sys)
    if pair is None:
        return None
    a, b = pair
    pairs = [pair]
    steps: dict[int, Optional[tuple[int, int]]] = {}  # ratio -> its factors
    for i in range(len(desc) - 2, -1, -1):
        k, rem = divmod(desc[i], desc[i + 1])
        if rem or k < 2:
            return None
        if k not in steps:
            steps[k] = factor_value(k, sys)
        step = steps[k]
        if step is None:
            return None
        a, b = a + step[0], b + step[1]
        pairs.append((a, b))
    return tuple(reversed(pairs))


def map_p(pt: Partition) -> Partition:
    """Multiply every part by p (increment every first exponent)."""
    return Partition((a + 1, b) for a, b in pt)


def map_q(pt: Partition) -> Partition:
    """Multiply every part by q (increment every second exponent)."""
    return Partition((a, b + 1) for a, b in pt)


def append_unit(pt: Partition) -> Partition:
    """Append the part 1 to a partition that has none."""
    if pt.has_unit:
        raise DuplicatePartError("partition already has a part 1")
    return Partition(pt + ((0, 0),))


def binary_partition(u: int) -> Partition:
    """The partition of u into distinct powers of 2 (requires a binary base)."""
    if u < 0:
        raise UnreachableSumError("negative sum")
    return Partition((i, 0) for i in range(u.bit_length() - 1, -1, -1) if u >> i & 1)


def fill_memo(memo: dict, key, expand: Callable, make: Callable):
    """``memo[key]``, filled first, with every entry that it is made from.

    ``expand(k)`` runs once for each key k that ``memo`` lacks and returns a
    pair whose second item lists the keys that k is made from; ``make(k,
    expansion)`` returns k's entry once each of those is in ``memo``, which
    fills the missing ones last listed first.  The walk keeps each key's
    expansion on an explicit stack, so a chain of any depth costs no Python
    frames, and it never rewrites an entry.  No key may be made from itself,
    or the walk does not end.
    """
    stack: list = [(key, None)]
    while stack:
        k, expansion = stack[-1]
        if k in memo:
            stack.pop()
            continue
        if expansion is None:
            stack[-1] = k, (expansion := expand(k))
        missing = [d for d in expansion[1] if d not in memo]
        if missing:
            stack.extend((d, None) for d in missing)
            continue
        memo[k] = make(k, expansion)
        stack.pop()
    return memo[key]


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def iter_chains(limit: int, sys: PQSystem,
                least: int = 0) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """Yield (sum, exponent pairs) for every chain with least <= sum <= limit.

    One depth-first walk on an explicit stack, from the empty chain; each
    chain lists its largest part first.  The next part is a proper divisor of
    the last one that keeps the sum within ``limit``, and a branch is cut when
    even the largest chain from that part on cannot lift the sum to ``least``.
    The walk reads no count or decomposition table, so it is the oracle of
    the engines that do.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    cells = []  # (p^a * q^b, (a, b)) for every part up to limit
    va, a = 1, 0
    while va <= limit:
        v, b = va, 0
        while v <= limit:
            cells.append((v, (a, b)))
            v, b = v * sys.q, b + 1
        va, a = va * sys.p, a + 1
    cells.sort()
    # reach[a, b]: the largest chain sum with first part p^a * q^b; a best
    # chain divides each part by p or by q to get the next
    reach: dict[tuple[int, int], int] = {}
    for v, (a, b) in cells:
        reach[a, b] = v + max(reach.get((a - 1, b), 0), reach.get((a, b - 1), 0))
    # below[cell]: (value, pair, reach) of the cell's proper divisors in
    # increasing value, built when the walk first stands on the cell;
    # below[None] holds every cell, the choices of a first part
    below = {None: [(v, ab, reach[ab]) for v, ab in cells]}
    stack = [(0, (), None)]
    while stack:
        total, pairs, cell = stack.pop()
        if total >= least:
            yield total, pairs
        nexts = below.get(cell)
        if nexts is None:
            a, b = cell
            nexts = below[cell] = [d for d in below[None]
                                   if d[1][0] <= a and d[1][1] <= b and d[1] != cell]
        budget, need = limit - total, least - total
        for w, pair, most in nexts:
            if w > budget:
                break
            if most >= need:
                stack.append((total + w, pairs + (pair,), pair))


def brute_force_enumerate(
    u: int, sys: PQSystem, ceiling: int = DEFAULT_ENUMERATION_CEILING
) -> frozenset[Partition]:
    """All strictly chained partitions of u: the chains of ``iter_chains`` with sum u."""
    if u < 0:
        return frozenset()
    if u > ceiling:
        raise BudgetError(f"u={u} exceeds the enumeration ceiling {ceiling}")
    return frozenset(Partition(pairs) for _, pairs in iter_chains(u, sys, least=u))


class CensusResult(NamedTuple):
    """Exhaustive brute-force sweep: per-sum partition counts and least sizes."""

    limit: int
    counts: list[int]
    min_len: list[Optional[int]]


def chain_census(limit: int, sys: PQSystem,
                 ceiling: int = DEFAULT_ENUMERATION_CEILING) -> CensusResult:
    """Count every chained partition with sum <= limit, and its least size.

    Equivalent to running ``brute_force_enumerate`` for each u <= limit, but
    one ``iter_chains`` walk visits each chain exactly once.
    """
    if limit > ceiling:
        raise BudgetError(f"limit={limit} exceeds the enumeration ceiling {ceiling}")
    counts = [0] * (limit + 1)
    min_len: list[Optional[int]] = [None] * (limit + 1)
    for total, pairs in iter_chains(limit, sys):
        counts[total] += 1
        if min_len[total] is None or len(pairs) < min_len[total]:
            min_len[total] = len(pairs)
    return CensusResult(limit, counts, min_len)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TextOf(dict):
    """``make(key)`` for each key, made on its first lookup and kept."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def json_lines(sys: PQSystem) -> tuple[TextOf, Callable[..., str]]:
    """The decimal value of each exponent pair, and the JSON line of a partition.

    ``line(parts, total)`` is ``{"p":2,"q":3,"parts":[[1,2],[0,0]],"sum":"19",
    "values":["18","1"]}``, the compact ``json.dumps`` text; with
    ``values=False`` it ends after the sum.  Numbers are decimal strings, so
    that big ones survive lossy JSON readers.  The text of each distinct pair
    and of its value is made once per call of this function.
    """
    p, q = sys.p, sys.q
    decimal = TextOf(lambda pair: str(p**pair[0] * q**pair[1]))
    quoted = TextOf(lambda pair: f'"{decimal[pair]}"')
    pairs = TextOf(lambda pair: f"[{pair[0]},{pair[1]}]")
    head = f'{{"p":{p},"q":{q},"parts":['

    def line(parts: tuple, total: object, values: bool = True) -> str:
        text = head + ",".join(map(pairs.__getitem__, parts)) + f'],"sum":"{total}"'
        if not values:
            return text + "}"
        return text + ',"values":[' + ",".join(map(quoted.__getitem__, parts)) + "]}"

    return decimal, line


def to_json(pt: Partition, sys: PQSystem) -> str:
    """``{"p":2,"q":3,"parts":[[1,2],[0,0]],"sum":"19"}``: the ``json_lines`` line, no values."""
    return json_lines(sys)[1](pt, value(pt, sys), False)


def from_json(text: str, sys: Optional[PQSystem] = None) -> tuple[Partition, PQSystem]:
    """Parse the JSON form, verifying the chain and the recorded sum.

    The bases and exponents must be JSON integers and the sum an integer or
    a decimal string.  A document of the wrong shape (a missing key, parts
    that are no list of pairs, a fraction, a boolean or text where an integer
    belongs) raises PartitionError.
    """
    doc = json.loads(text)
    try:
        if sys is None:
            sys = make_system(_json_int(doc["p"], "p"), _json_int(doc["q"], "q"))
        elif (_json_int(doc.get("p", sys.p), "p"),
              _json_int(doc.get("q", sys.q), "q")) != (sys.p, sys.q):
            raise PartitionError("document bases differ from the requested system")
        pt = Partition.from_pairs(json_pairs(doc["parts"]))
        if "sum" in doc and _json_sum(doc["sum"]) != value(pt, sys):
            raise PartitionError("recorded sum does not match the parts")
    except (AttributeError, KeyError, TypeError) as exc:
        raise PartitionError(f"not a partition document: {type(exc).__name__}: {exc}") from None
    return pt, sys


def json_pairs(items: object) -> list[tuple[int, int]]:
    """The exponent pairs of a JSON list of ``[a, b]`` lists of integers; any
    other shape raises one PartitionError."""
    if type(items) is not list or any(type(pair) is not list or len(pair) != 2 for pair in items):
        raise PartitionError("not a list of exponent pairs")
    return [(_json_int(a, "exponent"), _json_int(b, "exponent")) for a, b in items]


def _json_int(x: object, what: str) -> int:
    # bool is a subclass of int, so the exact type keeps true and false out
    if type(x) is not int:
        raise PartitionError(f"{what} must be an integer, not {type(x).__name__}")
    return x


def _json_sum(x: object) -> int:
    return int(x) if isinstance(x, str) and _DECIMAL.fullmatch(x) else _json_int(x, "sum")
