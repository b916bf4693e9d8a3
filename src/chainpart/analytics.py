"""Sequence-level analysis of the counting function W.

Covers the partial-sum function S(x) = sum of W(U) for U <= x and its exact
self-similarity

    S(x) = 2*(S(x/p) + S(x/q) - S(x/pq)) + 1 - W*(floor(x)),

the growth exponents

    alpha:  1/p^a + 1/q^a - 1/(pq)^a = 1/2      (S(x) ~ C * x^alpha)
    beta:   1/p^b + 1/q^b = 1                   (W(U) <= U^beta)

with the closed-form ceiling C < 2 / (ln(p^a)/(p^a-1) + ln(q^a)/(q^a-1)),
plus the p = 2 structure results: the local monotonicity pattern
W(qU) >= W(qU+1) >= W(qU-1) and W(qU+r) >= W(qU+r+1), the running-maximum
jump scan with its divisibility classification, the exact characterization of
{W = 1} and {W = 2} for (2, 3), and the doubling construction that certifies
W is unbounded once any value exceeds 1.

Each check reads its count scan, the ``array('I')`` of ``CountTable.scan``
(a list is converted to one), in blocks of 32-bit lanes packed into one big
integer; W < 2^31 below the scan's limit 2^39, so one SWAR compare on the
lanes' top bits (``decomposition._at_least``) tests a whole block.  Python
reads only the lanes a compare picks out: running-maximum jumps, counts below
3, failures.

Violations of proved statements raise InvariantViolationError; conjecture
exceptions are reported as data, never as errors.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys as _sys
from array import array
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import (
    InvalidSystemError,
    InvariantViolationError,
    PQSystem,
    UnreachableSumError,
)
from .counting import make_counter
from .decomposition import _at_least

BISECTION_LO = 1e-6
BISECTION_HI = 8.0
#: Slice length of the running-maximum screen; only slices holding a jump are read.
JUMP_SLICE = 512
#: Lanes per block of the other lane passes: 64 KB for each big integer.
LANE_BLOCK = 1 << 14
_GUARDS = int.from_bytes(array("I", [1 << 31]) * LANE_BLOCK, _sys.byteorder)


def _lanes(counts: Sequence[int]) -> array:
    """``counts`` as the scan's ``array('I')``; any other sequence is converted."""
    return counts if isinstance(counts, array) and counts.typecode == "I" else array("I", counts)


def _pack(part: array) -> tuple[int, int]:
    """The lanes of ``part``, at most LANE_BLOCK, as one integer, and their guard
    bits, each lane's top bit 2^31, which no W reaches: a lane holding it is refused."""
    guards = _GUARDS >> 32 * (LANE_BLOCK - len(part))
    x = int.from_bytes(part, _sys.byteorder)
    if x & guards:
        raise ValueError("a count at or past 2^31 is past the lane bound of the scan")
    return x, guards


def _set_lanes(bits: int, guards: int, first: int) -> Iterator[int]:
    """first + i for each lane i whose guard bit is set in ``bits``, which holds no other bit."""
    flags = bits.to_bytes(guards.bit_length() // 8, _sys.byteorder)
    at = flags.find(0x80)
    while at >= 0:
        yield first + at // 4
        at = flags.find(0x80, at + 1)


class GrowthExponents(NamedTuple):
    """Roots of the two defining equations with their residuals."""

    alpha: float
    beta: float
    alpha_residual: float
    beta_residual: float


def _alpha_gap(x: float, sys: PQSystem) -> float:
    return sys.p**-x + sys.q**-x - (sys.p * sys.q) ** -x - 0.5


def _beta_gap(x: float, sys: PQSystem) -> float:
    return sys.p**-x + sys.q**-x - 1.0


def _bisect(fn, lo: float, hi: float) -> float:
    """Root of a strictly decreasing continuous function on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo < 0 or fhi > 0:
        raise ValueError("bracket does not straddle the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo if abs(fn(lo)) <= abs(fn(hi)) else hi


def solve_exponents(sys: PQSystem) -> GrowthExponents:
    """Bisection roots of both exponent equations; checks alpha > beta."""
    alpha = _bisect(lambda x: _alpha_gap(x, sys), BISECTION_LO, BISECTION_HI)
    beta = _bisect(lambda x: _beta_gap(x, sys), BISECTION_LO, BISECTION_HI)
    if not alpha > beta:
        raise InvariantViolationError(f"alpha {alpha} is not above beta {beta}")
    return GrowthExponents(alpha, beta, _alpha_gap(alpha, sys), _beta_gap(beta, sys))


def constant_upper_bound(sys: PQSystem, alpha: Optional[float] = None) -> float:
    """Closed-form ceiling for the growth constant of S(x)/x^alpha."""
    if alpha is None:
        alpha = solve_exponents(sys).alpha
    pa = sys.p**alpha
    qa = sys.q**alpha
    return 2.0 / (math.log(pa) / (pa - 1.0) + math.log(qa) / (qa - 1.0))


class PrefixSums:
    """S(x) for real x up to a limit, backed by one bottom-up count scan.

    The scan is an ``array('I')``, W < 2^31, and its prefix sums, all it
    keeps, an ``array('Q')``: S(n) <= n^(1 + beta) < 2^64 for n below 2^35.
    """

    def __init__(self, sys: PQSystem, limit: int) -> None:
        self.sys = sys
        self.limit = limit
        self.counter = make_counter(sys)
        counts = self.counter.scan(limit)  # W itself is not kept: ``s`` reads the sums only
        self._sums = array("Q", itertools.accumulate(itertools.islice(counts, 1, limit + 1),
                                                      initial=0))

    def s(self, x: float) -> int:
        """S(x): the sum of W over 1..floor(x); 0 for x < 1."""
        if x >= self.limit + 1:
            raise ValueError(f"x={x} beyond the scanned limit {self.limit}")
        n = math.floor(x)
        return self._sums[n] if n >= 1 else 0

    def identity_gap(self, x: float) -> int:
        """LHS minus RHS of the S self-similarity at x; always 0."""
        lhs = self.s(x)
        rhs = (
            2 * (self.s(x / self.sys.p) + self.s(x / self.sys.q) - self.s(x / self.sys.pq))
            + 1
            - self.counter.w_star(max(math.floor(x), 0))
        )
        return lhs - rhs


class GrowthEstimate(NamedTuple):
    """Dyadic snapshots of S(x)/x^alpha against the closed-form ceiling."""

    alpha: float
    upper_bound: float
    samples: tuple[tuple[int, int, float], ...]  # (x, S(x), ratio)
    tail_spread: float

    @property
    def max_ratio(self) -> float:
        return max(r for _, _, r in self.samples)


def estimate_growth_constant(sys: PQSystem, xmax: int) -> GrowthEstimate:
    """Ratios S(2^k)/2^(k*alpha) for 2^k <= xmax, plus the tail spread.

    The ratios converge to the growth constant; the spread of the last
    five dyadic samples, (max-min)/min, measures stabilization.  S adds
    one dyadic slice of the scan at a time, with no prefix array.
    """
    if xmax < 10:
        raise ValueError("xmax must be at least 10")
    exponents = solve_exponents(sys)
    alpha = exponents.alpha
    bound = constant_upper_bound(sys, alpha)
    counts = memoryview(make_counter(sys).scan(xmax))
    samples = []
    s = counts[1]  # S(1)
    for k in range(1, xmax.bit_length()):
        x = 1 << k
        s += sum(counts[x // 2 + 1:x + 1])
        samples.append((x, s, s / x**alpha))
    ratios = [r for _, _, r in samples[-5:]]
    spread = (max(ratios) - min(ratios)) / min(ratios) if min(ratios) > 0 else math.inf
    return GrowthEstimate(alpha, bound, tuple(samples), spread)


class MonotonicityReport(NamedTuple):
    limit: int
    q: int
    violations: tuple[str, ...]


def check_local_monotonicity(limit: int, sys: PQSystem,
                             counts: Optional[Sequence[int]] = None) -> MonotonicityReport:
    """Scan W(qU) >= W(qU+1) >= W(qU-1) and W(qU+r) >= W(qU+r+1) (p = 2).

    The second chain runs over 0 < r < q - 1, since r = 0 is the first check.
    Checks every instance with arguments at most ``limit`` + q; returns the
    (expected empty) list of counterexamples.
    """
    if sys.p != 2:
        raise InvalidSystemError("the monotonicity pattern requires p = 2")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    q = sys.q
    arr = _lanes(counts if counts is not None else make_counter(sys).scan(limit + q))
    if len(arr) < limit + q + 1:
        raise ValueError(f"need counts through {limit + q}, got {len(arr) - 1}")
    n = limit // q + 1
    # A check is (first u, its place among the checks of one u, dx, dy); it
    # fails where W(qu + dx) < W(qu + dy).  A block of u packs the columns
    # W(qu + d); consecutive checks share one, so two stay packed at a time.
    # The q checks are generated anew in each block, never held as a list.
    bad = []
    for lo in range(0, n, LANE_BLOCK):
        hi = min(lo + LANE_BLOCK, n)
        column = functools.lru_cache(maxsize=2)(
            lambda u0, d: _pack(arr[q * u0 + d:q * hi + d:q]))
        for first, place, dx, dy in itertools.chain(
                ((0, 0, 0, 1), (1, 1, 1, -1)), ((0, 2 + r, r, r + 1) for r in range(1, q - 1))):
            u0 = max(lo, first)
            (x, guards), (y, _) = column(u0, dx), column(u0, dy)
            if less := guards ^ _at_least(x, y, guards):
                bad += ((u, place, q * u + dx, q * u + dy) for u in _set_lanes(less, guards, u0))
    bad.sort()
    return MonotonicityReport(limit, q, tuple(f"W({x}) < W({y})" for _, _, x, y in bad))


class JumpRecord(NamedTuple):
    """A point where the running maximum of W strictly increases."""

    u: int
    value: int
    odd_multiple: bool  # u = q * (odd number): the conjectured-only class


class JumpReport(NamedTuple):
    limit: int
    records: tuple[JumpRecord, ...]
    conjecture_exceptions: tuple[int, ...]  # jumps at even multiples of q


def max_count_jumps(limit: int, sys: PQSystem,
                    counts: Optional[Sequence[int]] = None) -> JumpReport:
    """Jump list of x -> max(W(U) : U <= x), with the proved classification.

    Every jump location must be divisible by q, and an even multiple of q can
    only be a jump at a multiple of 2*q^2; breaking either is an invariant
    violation.  Jumps at even multiples are reported as exceptions to the
    odd-multiples-only conjecture.
    """
    if sys.p != 2:
        raise InvalidSystemError("the jump classification requires p = 2")
    q = sys.q
    arr = _lanes(counts if counts is not None else make_counter(sys).scan(limit))
    records: list[JumpRecord] = []
    exceptions: list[int] = []
    for u in _jumps(arr, 1, limit + 1, 1):  # above W(0) = 1
        w = arr[u]
        if u % q != 0:
            raise InvariantViolationError(f"running-max jump at {u} not divisible by {q}")
        k = u // q
        if k % 2 == 1:
            records.append(JumpRecord(u, w, True))
        else:
            if u % (2 * q * q) != 0:
                raise InvariantViolationError(
                    f"even-multiple jump at {u} is not a multiple of {2 * q * q}"
                )
            records.append(JumpRecord(u, w, False))
            exceptions.append(u)
    return JumpReport(limit, tuple(records), tuple(exceptions))


def _jumps(arr: array, start: int, stop: int, running: int) -> list[int]:
    """The u in [start, stop) where arr[u] exceeds ``running`` and every earlier arr[v].

    ``_at_least`` screens each slice against ``running``; the first lane
    above it is a jump, and the screen repeats against its value.
    """
    if len(arr) < stop:
        raise ValueError(f"need counts through {stop - 1}, got {len(arr) - 1}")
    found = []
    for lo in range(start, stop, JUMP_SLICE):
        x, guards = _pack(arr[lo:min(lo + JUMP_SLICE, stop)])
        while above := guards ^ _at_least(running * (guards >> 31), x, guards):
            found.append(next(_set_lanes(above, guards, lo)))
            running = arr[found[-1]]
    return found


class SmallCountReport(NamedTuple):
    limit: int
    ones: tuple[int, ...]
    twos: tuple[int, ...]


def classify_small_counts(limit: int, sys: PQSystem,
                          counts: Optional[Sequence[int]] = None) -> SmallCountReport:
    """Verify the exact {W=1} and {W=2} sets for (2, 3) up to ``limit``.

    {W=1} = {0, 1} + {3*2^a - 1} and {W=2} = {3, 4, 6, 7} + {9*2^a - 1}
    + {15*2^a - 1}; any disagreement with the computed counts is an
    invariant violation.
    """
    if (sys.p, sys.q) != (2, 3):
        raise InvalidSystemError("the small-count characterization is for (2, 3)")
    arr = _lanes(counts if counts is not None else make_counter(sys).scan(limit))
    # {W = w} for w = 1, 2 from the few lanes of each block where W <= 2
    found: list[set[int]] = [set(), set(), set()]
    for lo in range(0, limit + 1, LANE_BLOCK):
        x, guards = _pack(arr[lo:min(lo + LANE_BLOCK, limit + 1)])
        if small := _at_least(guards >> 30, x, guards):  # 2 >= W, guards >> 30 being 2s
            for u in _set_lanes(small, guards, lo):
                found[arr[u]].add(u)

    def geometric(seed: int) -> set[int]:
        out = set()
        x = seed - 1
        while x <= limit:
            out.add(x)
            x = 2 * (x + 1) - 1
        return out

    ones = sorted(u for u in {0, 1} | geometric(3) if u <= limit)
    twos = sorted(u for u in {3, 4, 6, 7} | geometric(9) | geometric(15) if u <= limit)
    for w, members in ((1, ones), (2, twos)):
        if found[w] != set(members):
            diff = sorted(found[w] ^ set(members))
            raise InvariantViolationError(f"{{W={w}}} characterization fails at {diff[:5]}")
    return SmallCountReport(limit, tuple(ones), tuple(twos))


class DoublingStep(NamedTuple):
    u: int
    lower_bound: int
    count: Optional[int]  # None when verification was skipped (u too large)


def doubling_witnesses(u0: int, n: int, sys: PQSystem) -> list[DoublingStep]:
    """The sequence u_{k+1} = (1 + p^(kc) q^(kd)) u_k with W(u_k) >= 2^k.

    c and d are the componentwise maxima of the top-part exponents of two
    distinct partitions of u0 (hence W(u0) >= 2 is required).  Each step is
    verified against a counting engine while u_k <= 10^18.
    """
    from .enumeration import ResidueEnumerator  # here alone: the other analyses never enumerate
    counter = make_counter(sys)
    if counter.w(u0) < 2:
        raise UnreachableSumError(f"need at least two partitions of {u0}")
    members = sorted(ResidueEnumerator(sys).omega(u0))
    (a1, b1), (a2, b2) = members[0].largest, members[1].largest
    c, d = max(a1, a2), max(b1, b2)
    steps: list[DoublingStep] = []
    u = u0
    for k in range(1, n + 1):
        w = counter.w(u) if u <= 10**18 else None
        if w is not None and w < 2**k:
            raise InvariantViolationError(
                f"doubling construction failed: W({u}) = {w} < 2^{k}"
            )
        steps.append(DoublingStep(u, 2**k, w))
        u *= 1 + sys.p ** (k * c) * sys.q ** (k * d)
    return steps


class BoundReport(NamedTuple):
    limit: int
    beta: float
    max_ratio: float
    violations: tuple[int, ...]


def check_growth_bound(limit: int, sys: PQSystem,
                       counts: Optional[Sequence[int]] = None) -> BoundReport:
    """Verify W(U) <= U^beta on [1, limit] and report the largest ratio."""
    beta = solve_exponents(sys).beta
    arr = _lanes(counts if counts is not None else make_counter(sys).scan(limit))
    # u^beta increases with u, so the ratio at u is at most the ratio at the
    # last running-maximum jump up to u, and any violation shows at a jump too.
    jumps = [1, *_jumps(arr, 2, limit + 1, arr[1])] if limit >= 1 else []
    worst = max((arr[u] / u**beta for u in jumps), default=0.0)
    bad: tuple[int, ...] = ()
    if any(arr[u] > u**beta for u in jumps):
        bad = tuple(u for u in range(1, limit + 1) if arr[u] > u**beta)
    return BoundReport(limit, beta, worst, bad)
