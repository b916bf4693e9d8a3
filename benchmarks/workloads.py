"""Seeded op streams for the three benchmark workloads, with their output checks.

An op is one CLI command: an argv list, an optional stdin payload and a check
of its stdout.  Everything here runs outside the timed region.  The program
sees only argv and stdin; the checks use an engine or an invariant other than
the one the op used.

Sizes are log-uniform, placed along a golden-ratio sequence (one per op
kind), and op kinds and bases follow fixed, interleaved cycles.  Every prefix
of the stream therefore covers the size range, the bases and the op mix in
the same way whatever the seed, which keeps the run-to-run spread of the
timings small.  The seed moves every size by a little (``JITTER``) and draws
everything else: the chains behind each U, the scan bases, the long
partitions, the sampler and walk seeds and the chainpow operands.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from chainpart import codec, core, counting, enumeration, graph23

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Largest seeded shift of a size, in decades.
JITTER = 0.01

#: Why each workload exists; run.py prints it and BENCHMARK.json repeats it.
WHY = {
    "scan": "dense bottom-up scans of W and sigma to 10^6: tuple building in _expand "
            "and row formatting dominate; no sparse memo, set or codec work",
    "huge": "point queries at 20-300 digits: sparse memo dicts of big integers "
            "dominate time and peak memory; nothing dense runs",
    "sets": "whole-set work on Omega(U): enumeration, both codecs and the transition "
            "graph build partitions, frozensets and words in bulk; small ops show "
            "per-op CLI overhead",
}


#: Ops per minute of --seconds, about what a 2-vCPU machine runs.
OPS_PER_MINUTE = {"scan": 200, "huge": 400, "sets": 1700}
#: Fewest ops in a run, so that ten ops lie above the p90.
MIN_OPS = 100


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run of ``seconds``.

    The count depends on the workload and ``seconds`` alone, never on how
    fast the ops run, so a faster program runs exactly the ops of a slower
    one, and a run lasts about ``seconds`` of op time on a 2-vCPU machine.
    """
    return max(MIN_OPS, round(OPS_PER_MINUTE[workload] * seconds / 60))


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], None]
    stdin: Union[str, Callable[[], str]] = ""

    def payload(self) -> str:
        return self.stdin() if callable(self.stdin) else self.stdin


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


class _Spread:
    """Log-uniform sizes in [10**lo, 10**hi] along a golden-ratio sequence.

    The sequence is the same for every seed; the seed shifts each size by at
    most ``JITTER`` decades.
    """

    def __init__(self, rng: random.Random, lo: float, hi: float) -> None:
        self.rng, self.lo, self.hi, self.x = rng, lo, hi, 0.5

    def log10(self) -> float:
        self.x = (self.x + GOLDEN) % 1.0
        at = self.lo + (self.hi - self.lo) * self.x + self.rng.uniform(-JITTER, JITTER)
        return min(max(at, self.lo), self.hi)

    def int(self) -> int:
        return int(10 ** self.log10())


class _Cycle:
    """Endless cycle over a fixed pool."""

    def __init__(self, pool: list) -> None:
        self.pool, self.i = list(pool), -1

    def __call__(self):
        self.i = (self.i + 1) % len(self.pool)
        return self.pool[self.i]


def _interleave(block: tuple[tuple[str, int], ...]) -> list[str]:
    """One cycle of op kinds with each kind's share spread evenly over it."""
    total = sum(weight for _, weight in block)
    credit = {kind: 0 for kind, _ in block}
    order = []
    for _ in range(total):
        for kind, weight in block:
            credit[kind] += weight
        pick = max(credit, key=credit.__getitem__)
        credit[pick] -= total
        order.append(pick)
    return order


def chain_sum(rng: random.Random, p: int, q: int, log10_top: float) -> int:
    """The sum of a random chain whose largest part is at most 10**log10_top.

    Such a sum has W >= 1 for any bases; uniform integers would mostly have
    W = 0 for bases such as (3,4) or (5,7).
    """
    ln_top = log10_top * math.log(10)
    a = int(rng.random() * ln_top / math.log(p))
    b = max(0, int((ln_top - a * math.log(p)) / math.log(q)))
    total = 0
    while a >= 0 and b >= 0:
        total += p**a * q**b
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        a -= da or (0 if db else 1)
        b -= db
    return total


def long_chain(rng: random.Random, parts: int) -> list[tuple[int, int]]:
    """Exponent pairs of a chain with ``parts`` parts, largest first."""
    a, b = rng.randint(0, 2), rng.randint(0, 1)
    chain = [(a, b)]
    for _ in range(parts - 1):
        step = rng.random()
        a, b = (a + 1, b) if step < 0.7 else (a, b + 1) if step < 0.85 else (a + 1, b + 1)
        chain.append((a, b))
    return chain[::-1]


def _base_args(sys_: core.PQSystem) -> list[str]:
    return ["--p", str(sys_.p), "--q", str(sys_.q)]


def _values(parts, sys_: core.PQSystem) -> list[int]:
    return [sys_.p**a * sys_.q**b for a, b in parts]


# ---------------------------------------------------------------------------
# Reference values for the checks
# ---------------------------------------------------------------------------


def _engine_of(method: str, sys_: core.PQSystem) -> str:
    if method == "auto":
        return "halving" if sys_.p == 2 else "cases"
    return method


def _other_engine(engine: str, sys_: core.PQSystem) -> str:
    if sys_.p == 2:
        return "cases" if engine == "halving" else "halving"
    return "direct" if engine == "cases" else "cases"


class Reference:
    """Second-engine counts for the checks.

    Small arguments share one memoized engine per bases.  Counts printed by
    ``count`` ops are settled at the end of the run: two ops that asked
    different engines for the same U check each other, and a U seen by one
    engine only is counted again by another engine.
    """

    def __init__(self) -> None:
        self._engines: dict[tuple[int, int, str], counting.CountTable] = {}
        self._scans: dict[tuple[int, int], list[int]] = {}
        self._printed: dict[tuple[int, int, int], list[tuple[int, str, int]]] = {}
        self.op_index = 0

    def w(self, sys_: core.PQSystem, u: int) -> int:
        """W(u) from an engine other than the one the CLI picks by default."""
        engine = _other_engine(_engine_of("auto", sys_), sys_)
        key = (sys_.p, sys_.q, engine)
        if key not in self._engines:
            self._engines[key] = counting.make_counter(sys_, engine)
        return self._engines[key].w(u)

    def prefix(self, sys_: core.PQSystem, n: int) -> list[int]:
        """W(0..n) from the engine the CLI's dense scan does not use."""
        key = (sys_.p, sys_.q)
        arr = self._scans.get(key)
        if arr is None or len(arr) <= n:
            engine = _other_engine(_engine_of("auto", sys_), sys_)
            arr = self._scans[key] = counting.make_counter(sys_, engine).scan(max(n, 4096))
        return arr

    def note_count(self, sys_: core.PQSystem, u: int, method: str, value: int) -> None:
        """Remember a printed count of the op being checked, op number ``op_index``."""
        self._printed.setdefault((sys_.p, sys_.q, u), []).append(
            (self.op_index, _engine_of(method, sys_), value))

    def settle(self) -> dict[int, str]:
        """Check every noted count; returns {op index: failure reason}."""
        failures: dict[int, str] = {}
        for (p, q, u), seen in self._printed.items():
            sys_ = core.make_system(p, q)
            engines = {engine for _, engine, _ in seen}
            if len(engines) == 1:
                other = _other_engine(next(iter(engines)), sys_)
                expected = counting.make_counter(sys_, other).w(u)
            else:
                values = {value for _, _, value in seen}
                expected = values.pop() if len(values) == 1 else None
            for op_index, engine, value in seen:
                if value != expected:
                    failures[op_index] = f"check: W({u}) by {engine} disagrees with another engine"
        self._printed.clear()
        return failures


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _member(parts, sys_: core.PQSystem, u: int) -> core.Partition:
    """Validate exponent pairs as a member of Omega(u) through the part values."""
    try:
        pt = core.validate(_values(parts, sys_), sys_)
    except core.PartitionError as exc:
        raise CheckFailed(f"invalid partition: {exc}") from None
    _require(core.value(pt, sys_) == u, f"partition does not sum to {u}")
    return pt


def _replay_tree_word(text: str, sys_: core.PQSystem) -> core.Partition:
    """Rebuild a partition from a tree word without the codec (p = 2).

    Replaying from the partition of 1: a 2 doubles every part, a q triples
    every part, a 1 adds one to the binary block (the parts 2^a).  The parts
    that are not powers of 2 sit under shared exponent offsets and the binary
    block is one integer, so a letter costs O(1) amortized instead of O(parts).
    """
    rest: list[tuple[int, int]] = []  # exponents minus the offsets when stored
    da = db = 0
    block = 1
    for ch in reversed(codec.TreeWord.parse(text, sys_).letters):
        if ch == "2":
            da += 1
            block <<= 1
        elif ch == "q":
            db += 1
            rest.extend((a - da, 1 - db) for a in _bits(block))
            block = 0
        else:
            block += 1
    parts = [(a + da, b + db) for a, b in rest] + [(a, 0) for a in _bits(block)]
    return core.Partition(tuple(parts))


def _bits(n: int) -> list[int]:
    """Positions of the set bits of n, highest first."""
    return [n.bit_length() - 1 - i for i, ch in enumerate(bin(n)[2:]) if ch == "1"]


def _lines(text: str) -> Iterator[str]:
    return (line.rstrip("\n") for line in io.StringIO(text))


# ---------------------------------------------------------------------------
# scan: dense bottom-up work
# ---------------------------------------------------------------------------

SCAN_LIMITS = (4.0, 6.0)  # log10 of the scan limits
SCAN_BLOCK = (
    ("w-csv", 3), ("w-json", 1), ("maxw", 2), ("smallw", 1), ("monotonicity", 1),
    ("bound", 2), ("sigma-stats", 2), ("sumfn", 2), ("count-all", 6),
)
P2_ONLY = {"maxw", "monotonicity"}


def _scan_pool(rng: random.Random) -> list[core.PQSystem]:
    """(2,3), two more p = 2 pairs and three p > 2 pairs, all up to 13."""
    p2 = [(2, q) for q in range(5, 14, 2)]
    general = [(p, q) for p in range(3, 13) for q in range(p + 1, 14) if math.gcd(p, q) == 1]
    pairs = [(2, 3)] + rng.sample(p2, 2) + rng.sample(general, 3)
    return [core.make_system(p, q) for p, q in pairs]


def _check_rows(text: str, limit: int, sys_: core.PQSystem, ref: Reference,
                rows: set[int], header: Optional[str]) -> None:
    """Row count, and the W value of the chosen rows against a second engine."""
    lines = _lines(text)
    if header is not None:
        _require(next(lines, None) == header, "missing csv header")
    count = 0
    for u, line in enumerate(lines):
        count += 1
        if u in rows:
            if header is None:
                doc = json.loads(line)
                got_u, got_w = doc["u"], int(doc["w"])
            else:
                a, b = line.split(",")
                got_u, got_w = int(a), int(b)
            _require(got_u == u, f"row {u} labelled {got_u}")
            _require(got_w == ref.w(sys_, u), f"W({u}) = {got_w} disagrees with a second engine")
    _require(count == limit + 1, f"{count} rows for limit {limit}")


def _scan_ops(seed: int, ref: Reference) -> Iterator[Op]:
    rng = random.Random(seed)
    pool = _scan_pool(rng)
    base23 = pool[0]
    kinds = _interleave(SCAN_BLOCK)
    spreads = {kind: _Spread(rng, *SCAN_LIMITS) for kind, _ in SCAN_BLOCK}
    bases = {
        kind: _Cycle([s for s in pool if s.p == 2] if kind in P2_ONLY
                     else [base23] if kind == "smallw" else pool)
        for kind, _ in SCAN_BLOCK
    }
    emit = _Cycle(["csv", "json"])

    # The ROADMAP's headline scan and its sigma-scan row come first in every run.
    yield _scan_w(base23, 10**6, "csv", rng, ref)
    yield _sigma_stats(base23, 500_000, "json")
    while True:
        for kind in kinds:
            sys_ = bases[kind]()
            limit = spreads[kind].int()
            if kind == "w-csv":
                yield _scan_w(sys_, limit, "csv", rng, ref)
            elif kind == "w-json":
                yield _scan_w(sys_, limit, "json", rng, ref)
            elif kind == "maxw":
                yield _maxw(sys_, limit, emit(), ref)
            elif kind == "smallw":
                yield _smallw(sys_, limit, emit(), rng, ref)
            elif kind == "monotonicity":
                yield _monotonicity(sys_, limit, rng, ref)
            elif kind == "bound":
                yield _bound(sys_, limit, rng, ref)
            elif kind == "sigma-stats":
                yield _sigma_stats(sys_, limit, emit())
            elif kind == "sumfn":
                yield _sumfn(sys_, limit, emit(), ref)
            else:
                u = limit if sys_.p == 2 else chain_sum(rng, sys_.p, sys_.q, math.log10(limit))
                yield _count_all(sys_, u, ref)


def _scan_w(sys_, limit, emit, rng, ref) -> Op:
    rows = {0, 1, limit} | {rng.randrange(limit + 1) for _ in range(40)}

    def check(text: str) -> None:
        _check_rows(text, limit, sys_, ref, rows, "u,w" if emit == "csv" else None)

    argv = ["scan", "w", "--limit", str(limit), "--emit", emit] + _base_args(sys_)
    return Op(f"scan-w-{emit}", argv, check)


def _maxw(sys_, limit, emit, ref) -> Op:
    def check(text: str) -> None:
        lines = _lines(text)
        if emit == "csv":
            _require(next(lines, None) == "u,maxw,class", "missing csv header")
        last_u, last_w = 0, 1
        for line in lines:
            if emit == "csv":
                u, w, klass = line.split(",")
            else:
                doc = json.loads(line)
                u, w, klass = doc["u"], doc["maxw"], doc["class"]
            u, w = int(u), int(w)
            _require(last_u < u <= limit and w > last_w, f"record {u} out of order")
            _require(u % sys_.q == 0, f"jump at {u} not divisible by q")
            odd = (u // sys_.q) % 2 == 1
            _require(klass == ("q-odd" if odd else "2q2-exception"), f"class of {u}")
            _require(w == ref.w(sys_, u), f"W({u}) = {w} disagrees with a second engine")
            last_u, last_w = u, w

    argv = ["scan", "maxw", "--limit", str(limit), "--emit", emit] + _base_args(sys_)
    return Op("scan-maxw", argv, check)


def _smallw(sys_, limit, emit, rng, ref) -> Op:
    pick = random.Random(rng.randrange(2**32))

    def check(text: str) -> None:
        if emit == "csv":
            lines = _lines(text)
            _require(next(lines, None) == "u,w", "missing csv header")
            ones, twos = [], []
            for line in lines:
                u, w = map(int, line.split(","))
                (ones if w == 1 else twos).append(u)
        else:
            doc = json.loads(text)
            _require(doc["limit"] == limit, "limit not echoed")
            ones, twos = doc["ones"], doc["twos"]
        _require(ones == sorted(ones) and twos == sorted(twos), "unsorted sets")
        _require(ones[-1] <= limit and twos[-1] <= limit, "member beyond the limit")
        for members, w in ((ones, 1), (twos, 2)):
            for u in pick.sample(members, min(20, len(members))):
                _require(ref.w(sys_, u) == w, f"W({u}) is not {w}")

    argv = ["scan", "smallw", "--limit", str(limit), "--emit", emit] + _base_args(sys_)
    return Op("scan-smallw", argv, check)


def _monotonicity(sys_, limit, rng, ref) -> Op:
    bases = [sys_.q * rng.randrange(1, limit // sys_.q + 1) for _ in range(5)]

    def check(text: str) -> None:
        doc = json.loads(text)
        _require(doc == {"q": sys_.q, "limit": limit, "violations": 0}, f"report {doc}")
        for base in bases:
            _require(ref.w(sys_, base) >= ref.w(sys_, base + 1), f"W({base}) < W({base + 1})")

    argv = ["scan", "monotonicity", "--limit", str(limit)] + _base_args(sys_)
    return Op("scan-monotonicity", argv, check)


def _bound(sys_, limit, rng, ref) -> Op:
    spots = [limit] + [rng.randrange(1, limit + 1) for _ in range(10)]

    def check(text: str) -> None:
        doc = json.loads(text)
        beta, worst = float(doc["beta"]), float(doc["max_ratio"])
        _require(doc["limit"] == limit and doc["violations"] == 0, f"report {doc}")
        _require(abs(sys_.p**-beta + sys_.q**-beta - 1.0) < 1e-9, "beta misses its equation")
        _require(0.0 < worst <= 1.0, f"max_ratio {worst}")
        for u in spots:
            _require(ref.w(sys_, u) / u**beta <= worst * (1 + 1e-9), f"ratio at {u} above max")

    argv = ["scan", "bound", "--limit", str(limit)] + _base_args(sys_)
    return Op("scan-bound", argv, check)


def _sigma_stats(sys_, limit, emit) -> Op:
    def check(text: str) -> None:
        if emit == "csv":
            lines = _lines(text)
            _require(next(lines, None) == "sigma,count", "missing csv header")
            histogram = {int(s): int(n) for s, n in (line.split(",") for line in lines)}
        else:
            doc = json.loads(text)
            _require(doc["limit"] == limit and float(doc["mean_ratio"]) > 0, f"report {doc}")
            histogram = {int(s): n for s, n in doc["histogram"].items()}
        total = sum(histogram.values())
        _require(min(histogram) >= 1 and min(histogram.values()) >= 1, "empty histogram bin")
        if sys_.p == 2:  # every u >= 2 has its binary partition
            _require(total == limit - 1, f"{total} lengths for {limit - 1} sums")
        else:
            _require(total <= limit - 1, f"{total} lengths for {limit - 1} sums")

    argv = ["sigma-stats", "--limit", str(limit), "--emit", emit] + _base_args(sys_)
    return Op("sigma-stats", argv, check)


def _sumfn(sys_, xmax, emit, ref) -> Op:
    def check(text: str) -> None:
        lines = _lines(text)
        if emit == "csv":
            _require(next(lines, None) == "x,s,ratio,c_upper", "missing csv header")
        rows = []
        for line in lines:
            if emit == "csv":
                x, s, ratio, _ = line.split(",")
            else:
                doc = json.loads(line)
                x, s, ratio = doc["x"], doc["s"], doc["ratio"]
            rows.append((int(x), int(s), float(ratio)))
        _require([x for x, _, _ in rows] == [2**k for k in range(1, len(rows) + 1)]
                 and rows[-1][0] <= xmax < 2 * rows[-1][0], "dyadic points")
        exact = ref.prefix(sys_, 4096)
        alpha = math.log(rows[-1][1] / rows[-1][2]) / math.log(rows[-1][0])
        gap = sys_.p**-alpha + sys_.q**-alpha - (sys_.p * sys_.q) ** -alpha - 0.5
        _require(abs(gap) < 1e-6, "ratios do not follow x^alpha")
        for x, s, ratio in rows:
            _require(math.isclose(ratio, s / x**alpha, rel_tol=1e-9), f"ratio at {x}")
            if x <= 4096:
                _require(s == sum(exact[1:x + 1]), f"S({x}) disagrees with a second engine")

    argv = ["sumfn", "--xmax", str(xmax), "--emit", emit] + _base_args(sys_)
    return Op("sumfn", argv, check)


def _count_all(sys_, u, ref) -> Op:
    def check(text: str) -> None:
        doc = json.loads(text)
        engines = {"cases", "direct"} | ({"halving"} if sys_.p == 2 else set())
        _require(doc["u"] == u and doc["agree"] is True and set(doc) == engines | {"u", "agree"},
                 f"report {doc}")
        _require({int(doc[e]) for e in engines} == {ref.w(sys_, u)}, f"W({u}) disagrees")

    argv = ["count", "--method", "all", "--u", str(u)] + _base_args(sys_)
    return Op("count-all", argv, check)


# ---------------------------------------------------------------------------
# huge: sparse point queries at exponents hundreds of digits long
# ---------------------------------------------------------------------------

HUGE_DIGITS = (math.log10(20), math.log10(300))
HUGE_BLOCK = (("count-pair", 2), ("count-all", 1), ("sigma", 2), ("chainpow", 2), ("sample", 2))
HUGE_BASES = [(2, 3), (2, 5), (2, 3), (2, 7), (2, 3), (3, 4), (2, 3), (5, 7)]


def _huge_ops(seed: int, ref: Reference) -> Iterator[Op]:
    rng = random.Random(seed)
    kinds = _interleave(HUGE_BLOCK)
    digits = {kind: _Spread(rng, *HUGE_DIGITS) for kind, _ in HUGE_BLOCK}
    digits["count-all"] = _Spread(rng, math.log10(20), math.log10(30))
    systems = [core.make_system(p, q) for p, q in HUGE_BASES]
    bases = {kind: _Cycle(systems) for kind, _ in HUGE_BLOCK}

    def draw(kind: str) -> tuple[core.PQSystem, int]:
        sys_ = bases[kind]()
        return sys_, chain_sum(rng, sys_.p, sys_.q, 10 ** digits[kind].log10() - 1)

    # Every run starts with the ROADMAP's sparse-count row, w(10^300) for (2,3),
    # and a sampler draw at the same U, so that the sampler's recursion depth
    # limit shows in every run whatever the seed.
    yield _count(systems[0], 10**300, "auto", ref)
    yield _sample(systems[0], 10**300, rng)
    while True:
        for kind in kinds:
            sys_, u = draw(kind)
            if kind == "count-pair":
                # Two engines on one U check each other at no extra cost.
                yield _count(sys_, u, "auto", ref)
                yield _count(sys_, u, "cases", ref)
            elif kind == "count-all":
                yield _count_all(sys_, u, ref)
            elif kind == "sigma":
                yield _sigma_witness(sys_, u)
            elif kind == "chainpow":
                yield _chainpow(sys_, u, rng)
            else:
                yield _sample(sys_, u, rng)


def _count(sys_, u, method, ref) -> Op:
    def check(text: str) -> None:
        ref.note_count(sys_, u, method, int(text))

    argv = ["count", "--u", str(u)] + (["--method", method] if method != "auto" else [])
    return Op(f"count-{method}", argv + _base_args(sys_), check)


def _sigma_witness(sys_, u) -> Op:
    def check(text: str) -> None:
        doc = json.loads(text)
        parts = doc["witness"]
        _member(parts, sys_, u)
        _require(doc["u"] == u and doc["sigma"] == len(parts), "witness length is not sigma")
        _require(doc["values"] == [str(v) for v in _values(parts, sys_)], "part values")
        _require(doc["cost"] == {"p_ops": parts[0][0], "q_ops": parts[0][1],
                                 "adds": len(parts) - 1}, "chain cost")

    argv = ["sigma", "--u", str(u), "--witness"] + _base_args(sys_)
    return Op("sigma-witness", argv, check)


def _chainpow(sys_, u, rng) -> Op:
    g, mod = rng.randrange(2, 10**6), rng.randrange(10**8, 10**9)

    def check(text: str) -> None:
        doc = json.loads(text)
        _member(doc["witness"], sys_, u)
        _require(int(doc["result"]) == pow(g, u, mod), "result is not g^u mod m")

    argv = ["chainpow", "--g", str(g), "--u", str(u), "--mod", str(mod), "--cost"]
    return Op("chainpow", argv + _base_args(sys_), check)


def _sample(sys_, u, rng) -> Op:
    n = rng.randint(1, 4)

    def check(text: str) -> None:
        lines = text.splitlines()
        _require(len(lines) == n, f"{len(lines)} samples for --n {n}")
        for line in lines:
            doc = json.loads(line)
            _require(doc["sum"] == str(u), "sample sum")
            _member(doc["parts"], sys_, u)

    argv = ["sample", "--u", str(u), "--n", str(n), "--seed", str(rng.randrange(10**6))]
    return Op("sample", argv + _base_args(sys_), check)


# ---------------------------------------------------------------------------
# sets: whole-set work on Omega(U)
# ---------------------------------------------------------------------------

# A chain sum is below twice its largest part, so U stays under the CLI's
# enumeration ceiling of 10^7.
SETS_U = (3.0, 7.0 - math.log10(2))
SETS_GRAPH_U = (2.0, 5.0)
SETS_BLOCK = (
    ("enum-json", 1), ("enum-csv", 1), ("enum-words", 1), ("enum-tree", 1),
    ("encode-tree", 1), ("encode-lattice", 1), ("graph", 1), ("graph-dot", 1), ("walk", 1),
)
SETS_BASES = [(2, 3), (2, 5), (2, 3), (3, 4), (2, 3), (2, 7)]
LONG_PARTS = (1.0, math.log10(1500))


def _sets_ops(seed: int, ref: Reference) -> Iterator[Op]:
    rng = random.Random(seed)
    kinds = _interleave(SETS_BLOCK)
    sizes = {kind: _Spread(rng, *SETS_U) for kind, _ in SETS_BLOCK}
    for kind in ("graph", "graph-dot"):
        sizes[kind] = _Spread(rng, *SETS_GRAPH_U)
    for kind in ("encode-tree", "encode-lattice"):
        sizes[kind] = _Spread(rng, *LONG_PARTS)
    steps = _Spread(rng, 1.0, 3.0)
    systems = [core.make_system(p, q) for p, q in SETS_BASES]
    p2 = [s for s in systems if s.p == 2]
    bases = {kind: _Cycle(p2 if kind.endswith("tree") else systems)
             for kind, _ in SETS_BLOCK if kind.startswith(("enum-", "encode-"))}
    sys23 = systems[0]
    line_format = _Cycle(["values", "object", "pairs"])
    decode_format = _Cycle(["json", "values"])

    # Every run starts with the ROADMAP's codec row, tree_encode of 2^1500 - 1,
    # and an enumeration near the top of the U range (5,413 members), which
    # also sets the run's peak memory whatever the seed.
    yield _encode(sys23, "tree", [core.binary_partition(2**1500 - 1).parts], ["values"])
    yield _enumerate(sys23, 9_555_147, "json", ref)
    while True:
        for kind in kinds:
            if kind.startswith("enum-"):
                sys_ = bases[kind]()
                fmt = kind[5:]
                u = chain_sum(rng, sys_.p, sys_.q, sizes[kind].log10())
                yield _enumerate(sys_, u, fmt, ref)
                if fmt in ("words", "tree"):
                    yield _decode(sys_, u, "lattice" if fmt == "words" else "tree",
                                  decode_format())
            elif kind.startswith("encode-"):
                sys_ = bases[kind]()
                chains = [long_chain(rng, round(10 ** sizes[kind].log10()))
                          for _ in range(rng.randint(1, 3))]
                yield _encode(sys_, kind[7:], chains, [line_format() for _ in chains])
            elif kind == "walk":
                u = sizes[kind].int()
                yield _walk(sys23, u, round(10 ** steps.log10()), rng)
            else:
                yield _graph(sys23, sizes[kind].int(), kind == "graph-dot", ref)


def _enumerate(sys_, u, fmt, ref) -> Op:
    def check(text: str) -> None:
        lines = _lines(text)
        if fmt == "csv":
            _require(next(lines, None) == "u,values", "missing csv header")
        seen = set()
        for line in lines:
            if fmt == "json":
                doc = json.loads(line)
                parts = doc["parts"]
                _require(doc["values"] == [str(v) for v in _values(parts, sys_)], "values")
            elif fmt == "csv":
                total, values = line.split(",")
                _require(int(total) == u, "row sum")
                parts = core.validate(map(int, values.split()), sys_).parts
            else:
                decoded = codec.lattice_decode(line) if fmt == "words" else _replay_tree_word(line, sys_)
                parts = decoded.parts
            pt = _member(parts, sys_, u)
            _require(pt not in seen, "duplicate member")
            seen.add(pt)
        _require(len(seen) == ref.w(sys_, u), f"{len(seen)} members but W({u}) differs")

    argv = ["enumerate", "--u", str(u), "--format", fmt] + _base_args(sys_)
    return Op(f"enumerate-{fmt}", argv, check)


def _decode(sys_, u, codec_name, fmt) -> Op:
    members: list[core.Partition] = []

    def payload() -> str:
        members[:] = enumeration.ResidueEnumerator(sys_).omega_set(u).sorted_by_value(sys_)
        if codec_name == "lattice":
            return "".join(codec.lattice_encode(pt) + "\n" for pt in members)
        return "".join(codec.tree_encode(pt, sys_).render(sys_) + "\n" for pt in members)

    def check(text: str) -> None:
        lines = text.splitlines()
        _require(len(lines) == len(members), f"{len(lines)} partitions for {len(members)} words")
        for line, pt in zip(lines, members):
            if fmt == "json":
                doc = json.loads(line)
                _require([tuple(x) for x in doc["parts"]] == list(pt.parts), "round trip")
            else:
                _require(list(map(int, line.split())) == _values(pt.parts, sys_), "round trip")

    argv = ["decode", "--codec", codec_name, "--format", fmt] + _base_args(sys_)
    return Op(f"decode-{codec_name}", argv, check, payload)


def _encode(sys_, codec_name, chains, line_formats) -> Op:
    lines = []
    for parts, style in zip(chains, line_formats):
        if style == "values":
            lines.append(" ".join(map(str, _values(parts, sys_))))
        elif style == "object":
            lines.append(core.to_json(core.Partition(tuple(parts)), sys_))
        else:
            lines.append(json.dumps([list(pair) for pair in parts]))

    def check(text: str) -> None:
        words = text.splitlines()
        _require(len(words) == len(chains), f"{len(words)} words for {len(chains)} partitions")
        for word, parts in zip(words, chains):
            if codec_name == "lattice":
                pt = codec.lattice_decode(word)
            else:
                pt = _replay_tree_word(word, sys_)
            _require(pt.parts == tuple(parts), "word does not decode to its partition")

    argv = ["encode", "--codec", codec_name] + _base_args(sys_)
    return Op(f"encode-{codec_name}", argv, check, "\n".join(lines) + "\n")


def _graph(sys_, u, dot, ref) -> Op:
    def check(text: str) -> None:
        if not dot:
            doc = json.loads(text)
            _require(doc["u"] == u and doc["vertices"] == ref.w(sys_, u), "vertex count")
            _require(doc["connected"] is True, "graph not connected")
            _require(doc["edges"] >= doc["vertices"] - 1, "too few edges")
            _require(0 <= doc["diameter"] <= graph23.diameter_bound(u), "diameter above bound")
            return
        lines = text.splitlines()
        _require(lines[0] == f'graph "omega{u}" {{' and lines[-1] == "}", "dot frame")
        vertices, edges = set(), 0
        for line in lines[1:-1]:
            labels = line.strip().rstrip(";").split(" -- ")
            labels = [label.strip('"') for label in labels]
            if len(labels) == 1:
                _member(codec.lattice_decode(labels[0]).parts, sys_, u)
                vertices.add(labels[0])
            else:
                _require(set(labels) <= vertices, "edge to an unknown vertex")
                edges += 1
        _require(len(vertices) == ref.w(sys_, u), "vertex count")
        _require(edges >= len(vertices) - 1, "too few edges")

    argv = ["graph", "--u", str(u)] + (["--dot"] if dot else []) + _base_args(sys_)
    return Op("graph-dot" if dot else "graph", argv, check)


def _walk(sys_, u, steps, rng) -> Op:
    seed = rng.randrange(10**6)

    def check(text: str) -> None:
        doc = json.loads(text)
        _require((doc["u"], doc["steps"], doc["seed"]) == (u, steps, seed), "echo")
        pt = _member(doc["partition"], sys_, u)
        _require(codec.lattice_decode(doc["word"]) == pt, "word does not match the partition")

    argv = ["walk", "--u", str(u), "--steps", str(steps), "--seed", str(seed)]
    return Op("walk", argv + _base_args(sys_), check)


WORKLOADS = {"scan": _scan_ops, "huge": _huge_ops, "sets": _sets_ops}


def ops(workload: str, seed: int, ref: Reference) -> Iterator[Op]:
    """The endless, seeded op stream of one workload."""
    return WORKLOADS[workload](seed, ref)
