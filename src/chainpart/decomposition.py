"""The case split of Omega(U) on U mod pq, as one rule per grid cell.

Omega(U), for U >= 2, splits on the part 1: a member without it is p-scaled
(every part times p) or q-scaled, and one with it is the part 1 plus such a
member of U - 1.  So U has up to four branches, in this order: ``p`` into
Omega(U/p) when p | U, ``q`` into Omega(U/q) when q | U, ``1p`` (the part 1
plus Omega((U - 1)/p)) when p | U - 1, and ``1q`` likewise.  When
U mod pq <= 1 the q-side branch into Omega(pv) is filtered, since its members
divisible by pq are already p-scaled: it keeps those whose smallest part is
not divisible by p, which are the members of the branches of pv other than
its first, the p-scaled Omega(v).  So it holds W(pv) - W(v) members, and a
descent below it drops that first branch.

Every branch argument of N is N div p or N div q, so every node below U is a
grid quotient N(a, b) = U div (p^a q^b), and its branches depend only on
N mod p and N mod q.  ``grid_cells`` gives each cell reachable from U one
code byte: REACHED, plus STEP_P when N mod p <= 1 (and ONE_P when it is 1),
STEP_Q and ONE_Q likewise for q, and FILTERED when N mod pq <= 1; for p = 2
a row's codes are one ``translate`` of bit windows of its N and the next
row's.  Everything else reads the codes:

* ``count_grid`` folds them, rows b descending, by
  W(N) = [N mod p <= 1] W(N div p) + [N mod q <= 1] W(N div q)
  - [N mod pq <= 1] W(N div pq), and ``sigma_grid`` by sigma(N) = the least
  of sigma(N div p) + N mod p and sigma(N div q) + N mod q over the terms
  whose residue is at most 1.  Both folds take two rows per walk down a, and
  read one kind byte per cell, the ``translate`` of its code, from the first
  reached cell of either row on (on p = 2 a row's unreached cells are the run
  left of it).  They return a ``Grid`` of the codes and every k-th row: a
  lone value and the sigma witness row 0 alone (k = 0, two rows live at a
  time), ``walk`` every row (k = 1), the sampler ``_checkpoints``, placed by
  bytes.  ``segments``, the one loop of a descent down a Grid of W, refolds
  the rows between two kept rows keeping binomial checkpoints (revolve:
  Griewank and Walther, 2000), then the rows between.  The sigma fold prunes
  each code to the branch that its min took, ties to the first, so the
  witness reads it from the codes and no sigma row is kept.
* ``CELL_BRANCHES[filtered][code]`` lists the branches of a cell in the order
  above, and ``descend`` follows one of them per cell to the leaf N = 1, or
  to the end of a segment: to build a member of a given rank for sampling
  and enumeration, or the sigma witness.  A descent never moves to a smaller
  a or b, so it enters each segment once, at its top row, and reads no
  column left of where it entered.
* ``count_fill`` and ``sigma_fill`` fold the code of each class mod pq on
  0..n, a column of one class at a time, on typed buffers: W in an
  ``array('I')`` of 32-bit lanes, each column one big-integer add or subtract
  of its packed slices, and sigma in a ``bytearray``, NO_SIGMA (0x7F) where
  Omega is empty, with ``translate`` for ``+1`` and a bytewise SWAR min
  (``_at_least``, which the lane checks of ``analytics`` share).  Only the
  classes below n are coded, so the work is sized by n, not by pq.  Below the
  limit that ``CountTable.scan`` refuses, 2^39, W < 2^31 and P + Q < 2^32 in
  every lane, and sigma < 0x7E, so no lane overflows.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys as _sys
from array import array
from typing import Any, Callable, Container, Iterator, NamedTuple, Optional, Sequence

from .core import PQSystem

_INF = math.inf


# Cell codes of the grid sweep; a cell not reached from u is 0.
REACHED, STEP_P, ONE_P, STEP_Q, ONE_Q, FILTERED = 32, 1, 2, 4, 8, 16


class CellBranch(NamedTuple):
    """A branch of the cell (a, b): into the cell (a + da, b + db), adding the
    part (a, b) when ``unit``; a ``filtered`` one drops the p-scaled members."""

    da: int
    db: int
    unit: bool
    filtered: bool


def _branches_of(code: int, filtered: bool) -> tuple[CellBranch, ...]:
    """The branches of a cell with ``code``, entered by a filtered branch or not."""
    p_side = (CellBranch(1, 0, bool(code & ONE_P), False),) if code & STEP_P and not filtered else ()
    q_side = (CellBranch(0, 1, bool(code & ONE_Q), bool(code & FILTERED)),) if code & STEP_Q else ()
    # the order p, q, 1p, 1q puts q before 1p
    return q_side + p_side if code & ONE_P and q_side and not code & ONE_Q else p_side + q_side


#: ``CELL_BRANCHES[filtered][code]``: the branches of a cell, in the order
#: p, q, 1p, 1q; below a filtered branch the p-scaled one is dropped.
CELL_BRANCHES = tuple(tuple(_branches_of(code, filtered) for code in range(64))
                      for filtered in (False, True))


def descend(cells: list[bytearray], a: int, b: int, filtered: bool, parts: list[tuple[int, int]],
            pick: Callable[[int, int, tuple[CellBranch, ...]], CellBranch],
            end: Optional[int] = None) -> Optional[tuple[int, int, bool]]:
    """Go down the ``cells`` of ``grid_cells`` from the cell (a, b) to the leaf.

    ``filtered`` says whether the branch into (a, b) was filtered.  At each
    cell, ``pick(a, b, branches)`` returns the branch to take.  A unit branch
    appends the part (a, b) to ``parts``, and the leaf N = 1, the last cell of
    its row when it has STEP_P, appends the last part, smallest first.
    Returns None at the leaf, or with no cells (U = 0, no parts); with a row
    bound ``end``, a descent that reaches row ``end`` first stops there and
    returns its cell and ``filtered``, to resume from.
    """
    stop = len(cells) if end is None else min(end, len(cells))
    while b < stop:
        codes = cells[b]
        code = codes[a]
        if code & STEP_P and a == len(codes) - 1:
            parts.append((a, b))
            return None
        da, db, unit, filtered = pick(a, b, CELL_BRANCHES[filtered][code])
        if unit:
            parts.append((a, b))
        a += da
        b += db
    return (a, b, filtered) if b < len(cells) else None


def _digits(n: int, base: int) -> Sequence[int]:
    """The base-``base`` digits of n >= 0, least significant first."""
    if base == 256:
        return n.to_bytes((n.bit_length() + 7) // 8, "little")
    k, chunk = 1, base
    while chunk * base < 1 << 30:  # a one-limb divisor keeps each divmod linear
        k, chunk = k + 1, chunk * base
    out: list[int] = []
    while n >= chunk:
        n, c = divmod(n, chunk)
        for _ in range(k):
            c, d = divmod(c, base)
            out.append(d)
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out


@functools.lru_cache(maxsize=128)
def _chunk_codes(sys: PQSystem) -> tuple[int, dict[int, tuple[bytes, int]]]:
    """k, and a map filled on demand from s * p^k + c to (codes, s after * p^k).

    c holds the base-p digits N mod p of k cells in a row, least significant
    first, and s is N mod q at the first; the codes ignore reachability.
    """
    k = 1
    while sys.p ** (k + 1) <= 256:
        k += 1
    return k, {}


def _codes_of(sys: PQSystem, k: int, s: int, c: int) -> tuple[bytes, int]:
    p, q, p_inv = sys.p, sys.q, sys.k0
    codes = bytearray()
    for _ in range(k):
        c, d = divmod(c, p)
        code = REACHED
        if d < 2:
            code |= STEP_P | (ONE_P if d else 0)
        if s < 2:
            code |= STEP_Q | (ONE_Q if s else 0) | (FILTERED if d == s else 0)
        codes.append(code)
        s = (s - d) * p_inv % q  # N(a + 1, b) = (N(a, b) - d) / p
    return bytes(codes), s


class Grid(NamedTuple):
    """A sweep: ``rows[j]`` is row ``tops[j]``, b ascending, and the ``grid_cells`` they
    fold; ``tops`` is a ``range`` of every k-th row, or a tuple of checkpoint rows."""

    rows: list[list]
    cells: list[bytearray]
    tops: Sequence[int]


_P_FF = bytes(0xFF if c & STEP_P else 0 for c in range(256))
_Q_01 = bytes(1 if c & STEP_Q else 0 for c in range(256))


def grid_cells(u: int, sys: PQSystem) -> list[bytearray]:
    """Codes of the grid cells reachable from u >= 1, a ``bytearray`` per row.

    ``cells[b][a]`` describes N = u div (p^a q^b): 0 when no branch path
    reaches it from u, else REACHED plus STEP_P when N mod p <= 1 (ONE_P when it
    is 1), STEP_Q and ONE_Q likewise for q, and FILTERED when N mod pq <= 1.
    A row's cells are reached along STEP_P from its seeds, the reached cells
    of the row above with STEP_Q.  A row ends at its last reached cell, and
    the rows at the last row with one: a seed past its row's end is dropped,
    as the q branch of the leaf N = 1 into N = 0, which no descent takes and
    the folds read past every row's end.  The sigma fold prunes the rows in place.

    For p = 2 and q < 16 (else ``_chunk_cells``), with t = n div q, the next
    row's n, and k = q's bits, N(a) mod q = ((n >> a) - q (t >> a)) mod 2^k:
    one product of n and t, a byte per bit, sums each k-bit window into a key
    of ``_window_codes``.  Every cell has STEP_P: a row is reached from its first seed on.
    """
    if sys.p != 2 or sys.q > 15:
        return _chunk_cells(u, sys)
    q, k, table = sys.q, sys.q.bit_length(), _window_codes(sys)
    window = sum(1 << 8 * j + k - 1 - j for j in range(k))  # cell a's key lands in byte a + k - 1
    cells: list[bytearray] = []
    first, n, bits = 0, u, int.from_bytes(bin(u).encode().translate(_BITS), "big")
    while 0 <= first < (length := n.bit_length()):  # first: the row's first seed
        t = n // q
        t_bits = int.from_bytes(bin(t).encode().translate(_BITS), "big")
        flags = ((bits | t_bits << k) * window).to_bytes(length + k - 1, "little")[k - 1:].translate(table)
        cells.append(bytearray(first) + flags[first:])
        first, n, bits = flags.translate(_Q_01).find(1, first), t, t_bits
    return cells


#: The characters of ``bin`` as bytes: 1 for "1", else 0.
_BITS = bytes(int(c == ord("1")) for c in range(256))


@functools.lru_cache(maxsize=8)
def _window_codes(sys: PQSystem) -> bytes:
    """The p = 2 code of a cell by x = (n >> a) mod 2^k + 2^k ((n div q) >> a) mod 2^k."""
    q, low = sys.q, (1 << sys.q.bit_length()) - 1
    return bytes(_codes_of(sys, 1, ((x & low) - q * (x >> q.bit_length())) & low, x & 1)[0][0]
                 for x in range(256))


def _chunk_cells(u: int, sys: PQSystem) -> list[bytearray]:
    """``grid_cells`` with the codes of a row k digits at a time from u div q^b
    in base p^k.  Reachability is bytewise integer arithmetic, one byte per
    cell: a run of cells joined by STEP_P from a seed is cleared by adding
    the seed, as a carry."""
    k, table = _chunk_codes(sys)
    span = sys.p**k
    cells: list[bytearray] = []
    seeds, n = 1, u  # one byte per cell: 1 at a seed, else 0
    while seeds and n:
        chunks, parts, s = _digits(n, span), [], n % sys.q * span  # s: N mod q times span
        for c in chunks:
            hit = table.get(s + c)
            if hit is None:
                codes, after = _codes_of(sys, k, s // span, c)
                hit = table[s + c] = codes, after * span
            parts.append(hit[0])
            s = hit[1]
        length, top = k * (len(chunks) - 1), chunks[-1]
        while top:
            length, top = length + 1, top // sys.p
        flags = b"".join(parts)  # past the length, codes of zero digits that ``mask`` drops
        mask = (1 << 8 * length) - 1
        seeds_ff = seeds * 0xFF
        # 0xFF at each seed and at each cell that a STEP_P cell steps into
        run = int.from_bytes(flags.translate(_P_FF), "little") << 8 | seeds_ff
        reached = (((run + seeds) ^ run) & run | seeds_ff) & mask
        if not reached:  # every seed lies past the row's end
            break
        row = int.from_bytes(flags, "little") & reached
        cells.append(bytearray(row.to_bytes((row.bit_length() + 7) // 8, "little")))
        seeds = reached & int.from_bytes(flags.translate(_Q_01), "little")
        n //= sys.q
    return cells


def _fold_rows(cells: list[bytearray], bs: range, below: list, at_zero: object,
               fold_pair: Callable[..., tuple], keep: Container[int]) -> list[list]:
    """Fold the rows b of ``bs``, an ascending range, bottom up, two per
    ``fold_pair(cells[b - 1], cells[b], below, b in keep)``, which returns
    (row b if kept, else None; row b - 1), from ``below``, the row under the
    last; return those with b in ``keep``, b ascending.  Of an odd number of
    rows, the top one folds as row b under an empty row b - 1.

    A row holds one value per cell a, None where unreached, and then the value
    at N = 0; the row below is padded with that value past its end, in place
    unless it is kept or the caller's.  Each pair folds from its first reached cell.
    """
    kept, mine = [], False  # mine: ``below`` is a row of this fold, not kept
    for b in range(bs.stop - 1, bs.start - 1, -2):
        codes = cells[b]
        if not mine:
            below = below[:]
        below += [at_zero] * (len(codes) + 1 - len(below))
        row, below = fold_pair(cells[b - 1] if b > bs.start else bytearray(), codes, below, b in keep)
        if row is not None:
            kept.append(row)
        mine = b - 1 not in keep
        if not mine and b > bs.start:
            kept.append(below)
    kept.reverse()
    return kept


def _pair_kinds(up: bytes, low: bytes, kinds: bytes, lo: int) -> tuple[Iterator[tuple[int, int]], int]:
    """The kind bytes of two rows, by the ``translate`` table ``kinds``, as pairs
    (up's, low's) for a counted down from the first reached cell of either
    (or ``lo``), and the end of the longer row; past its end a row's kind is 0."""
    end = max(len(up), len(low))
    start = max(lo, min(len(up) - len(up.lstrip(b"\0")) if up else end,
                        len(low) - len(low.lstrip(b"\0")) if low else end))
    return zip(reversed(up[start:].translate(kinds).ljust(end - start, b"\0")),
               reversed(low[start:].translate(kinds).ljust(end - start, b"\0"))), end


#: Below this many bytes of rows a segment is refolded whole: no third fold saves memory.
_WHOLE_BYTES = 1 << 18


def _slots(rows: int) -> int:
    """The checkpoints ``segments`` keeps in ``rows`` rows: the least s with C(s + 2, 2) > rows."""
    return (math.isqrt(8 * rows + 1) - 1) // 2


def _row_bytes(codes: bytes) -> float:
    """About the bytes of a row of W of L cells: 8 a cell for its pointer, and for each
    reached cell an int of 28 bytes and a quarter of L bits (N's bits for p = 2), 7.5 a byte."""
    return 8 * len(codes) + (len(codes) - codes.count(0)) * (28 + len(codes) / 30)


def _checkpoints(cells: list[bytearray]) -> tuple[int, ...]:
    """Row 0 and the top of each segment where ``_slots(m)`` + 2 of its largest rows, as
    ``segments`` holds for m rows, would pass 1.3 R^(1/3) of the largest of all R rows."""
    size = [_row_bytes(codes) for codes in cells]
    budget = 1.3 * len(cells) ** (1 / 3) * max(size)
    tops, rows, big = [], 0, 0.0
    for b in range(len(cells) - 1, -1, -1):
        rows, big = rows + 1, max(big, size[b])
        if not b or (_slots(rows + 1) + 2) * max(big, size[b - 1]) > budget:
            tops.append(b)
            rows, big = 0, 0.0
    return tuple(tops[::-1])


def _sweep(u: int, sys: PQSystem, at_zero: object, fold_pair: Callable[..., tuple],
           every: Optional[int]) -> Grid:
    """Fold every row of ``grid_cells`` by ``_fold_rows``, the one sweep of a fold, into a Grid
    of every ``every``-th row: ``_checkpoints`` for None, and row 0 alone, one segment, for 0."""
    cells = grid_cells(u, sys)
    tops = _checkpoints(cells) if every is None else range(0, len(cells), every or len(cells))
    return Grid(_fold_rows(cells, range(len(cells)), [], at_zero, fold_pair, tops), cells, tops)


def count_grid(u: int, sys: PQSystem, every: Optional[int] = 0) -> Grid:
    """W on the reachable cells below u, as a ``Grid``; W(u) is rows[0][0].

    ``every`` picks the rows kept, as in ``_sweep``: 0 row 0 alone, None the
    sampler's checkpoints, k every k-th row.  The rows fold by the W rule
    of the module docstring, with W(0) = 1; unreached cells hold None.  For
    u < 1 there are no cells and no tops: W(0) = 1 and W(u) = 0 below.
    """
    if u < 1:
        return Grid([[int(not u)]], [], range(0))
    return _sweep(u, sys, 1, _count_pair, every)


def segments(grid: Grid, least: Callable[[], int]) -> Iterator[tuple[int, list[list]]]:
    """The top and rows of each segment of a Grid of W, top first, for a descent to cross.

    The m rows between two kept rows (the last past the grid, empty) are
    refolded right of column ``least()`` (None left of it, which no descent
    entering there reads), keeping binomial checkpoints up from the bottom:
    every (s + 1)-th row, then every s-th, ..., s = ``_slots(m)`` (revolve),
    none when they hold under ``_WHOLE_BYTES``.  The rows between two
    checkpoints are refolded once more right of ``least()``, and yielded with
    both, so no row is folded more than three times.  The loop holds no
    segment once yielded, nor a checkpoint once its segment is passed.
    """
    rows, cells, tops = grid

    def fold(bs: range, below: list, keep: Container[int]) -> list[list]:
        return _fold_rows(cells, bs, below, 1, functools.partial(_count_pair, lo=least()), keep)

    for j, top in enumerate(tops):
        end = tops[j + 1] if j + 1 < len(tops) else len(cells)
        small = sum(map(_row_bytes, cells[top + 1:end])) < _WHOLE_BYTES
        step = end - top if small else _slots(end - top - 1) + 1
        # up from the end, every s + 1 rows, then every s, ...: none if small; b ascending
        ends = [b for b in itertools.accumulate(range(-step, 0), initial=end) if b > top][::-1]
        below = rows[j + 1] if j + 1 < len(rows) else []
        checkpoints = [rows[j], *fold(range(ends[0], end), below, ends), below]
        for i, sub in enumerate((top, *ends[:-1])):
            bs = range(sub + 1, ends[i])
            yield sub, [checkpoints[i], *fold(bs, checkpoints[i + 1], bs), checkpoints[i + 1]]
            checkpoints[i] = []  # passed: only the checkpoints below stay live


def _count_kind(code: int) -> int:
    """The kind of a cell in the count fold, from its code.

    With w = W at (a + 1, b), which a STEP_P cell steps into, W at the cell
    is: 0 unreached (no value), 1 w + W below, 2 that less the filtered term,
    3 w, 4 W below, 5 that less the filtered term, 6 zero.
    """
    if not code:
        return 0
    if code & STEP_Q:
        return (2 if code & FILTERED else 1) + (0 if code & STEP_P else 3)
    return 3 if code & STEP_P else 6


_COUNT_KINDS = bytes(_count_kind(code) for code in range(256))


def _count_pair(up: bytes, low: bytes, below: list, keep: bool, lo: int = 0) -> tuple[Optional[list], list]:
    """Rows b - 1 and b of ``count_grid`` right of ``lo``, for ``_fold_rows``, in
    one walk down a: W at (a, b) is ``w``, with ``right`` at (a + 1, b) for the
    filtered term, and W at (a, b - 1) is ``v``.  Row b is written only if kept."""
    lower = [None] * len(low) + [1] if keep else None
    upper = [None] * len(up) + [1]
    kinds, a = _pair_kinds(up, low, _COUNT_KINDS, lo)
    w = v = 1
    # kinds by their frequency on p = 2 (kind 3 takes 1 - 2/q); literals keep out name lookups
    for k_up, k_low in kinds:
        a -= 1
        right = w
        if k_low == 3:
            pass
        elif k_low == 1:
            w += below[a]
        elif k_low == 2:
            w += below[a] - below[a + 1]
        elif not k_low:
            pass
        elif k_low == 4:
            w = below[a]
        elif k_low == 5:
            w = below[a] - below[a + 1]
        else:
            w = 0
        if keep and k_low:
            lower[a] = w
        if k_up == 3:
            pass
        elif k_up == 1:
            v += w
        elif k_up == 2:
            v += w - right
        elif not k_up:
            continue
        elif k_up == 4:
            v = w
        elif k_up == 5:
            v = w - right
        else:
            v = 0
        upper[a] = v
    return lower, upper


def sigma_grid(u: int, sys: PQSystem, every: Optional[int] = 0) -> Grid:
    """sigma on the reachable cells below u, as ``count_grid``.

    The rows fold by the sigma rule of the module docstring, with
    sigma(0) = 0 and inf where no term is left.  For u < 1 there are no
    cells and no tops: sigma(0) = 0 and sigma(u) = inf below.  The fold
    prunes the Grid's codes as ``_sigma_pair`` does, so the first branch of
    each cell is the argmin that the witness descends.
    """
    if u < 1:
        return Grid([[0 if not u else _INF]], [], range(0))
    return _sweep(u, sys, 0, _sigma_pair, every)


def _sigma_kind(code: int) -> int:
    """The kind of a cell in the sigma fold, from its code: 0 unreached, else
    1 + 3 * (its p term) + (its q term), a term being 0 when absent, 1 when
    it adds 0 (N mod base = 0) and 2 when it adds 1."""
    if not code:
        return 0
    p_term = (2 if code & ONE_P else 1) if code & STEP_P else 0
    q_term = (2 if code & ONE_Q else 1) if code & STEP_Q else 0
    return 1 + 3 * p_term + q_term


_SIGMA_KINDS = bytes(_sigma_kind(code) for code in range(256))


def _sigma_pair(up: bytearray, low: bytearray, below: list, keep: bool) -> tuple[Optional[list], list]:
    """Rows b - 1 and b of ``sigma_grid``, as ``_count_pair``: sigma at (a, b)
    is ``s`` and at (a, b - 1) ``t``.  At a cell with two branches whose second
    scores strictly less, it clears the first's bits in its codes, so that
    ``CELL_BRANCHES[filtered][code][0]`` is the argmin branch, ties to the first."""
    lower = [None] * len(low) + [0] if keep else None
    upper = [None] * len(up) + [0]
    kinds, a = _pair_kinds(up, low, _SIGMA_KINDS, 0)
    s = t = 0  # each is sigma at (a + 1, its row) whenever the cell has STEP_P
    # 7-9 and 4-6 are the p terms + 1 and + 0, with no q term, + 0 or + 1, and
    # 1-3 have no p term; kind 8 lists its branches q first, the others p
    # first; & 252 clears STEP_P | ONE_P, & 227 STEP_Q | ONE_Q | FILTERED
    for k_up, k_low in kinds:
        a -= 1
        if k_low >= 7:
            s += 1
            if k_low == 7:
                pass
            elif k_low == 8:
                if below[a] <= s:
                    s = below[a]
                else:
                    low[a] &= 227
            elif below[a] + 1 < s:
                s = below[a] + 1
                low[a] &= 252
        elif k_low >= 4:
            if k_low == 4:
                pass
            elif k_low == 5:
                if below[a] < s:
                    s = below[a]
                    low[a] &= 252
            elif below[a] + 1 < s:
                s = below[a] + 1
                low[a] &= 252
        elif k_low:
            s = below[a] + k_low - 2 if k_low > 1 else _INF
        if keep and k_low:
            lower[a] = s
        if k_up >= 7:
            t += 1
            if k_up == 7:
                pass
            elif k_up == 8:
                if s <= t:
                    t = s
                else:
                    up[a] &= 227
            elif s + 1 < t:
                t = s + 1
                up[a] &= 252
        elif k_up >= 4:
            if k_up == 4:
                pass
            elif k_up == 5:
                if s < t:
                    t = s
                    up[a] &= 252
            elif s + 1 < t:
                t = s + 1
                up[a] &= 252
        elif k_up:
            t = s + k_up - 2 if k_up > 1 else _INF
        else:
            continue
        upper[a] = t
    return lower, upper


def _fill_columns(arr: array | bytearray, sys: PQSystem, bits: int,
                  column: Callable[[int, Any, Any, Any], Any]) -> None:
    """Fill arr[2:] in place, given arr[0] and arr[1], one residue class at a time.

    For the u = pq k + r of a run of k, ``column(code, at_p, at_q, at_pq)``
    gets the bits ``bits`` of the ``_codes_of`` code of r and the slices of
    ``arr`` at u div p, u div q and u div pq, and returns the values at those
    u as a buffer of the type of ``arr``.  Each u < pq is a run of its own.  A
    run of k from k0 >= 1 to min(p, q) k0 reads only entries below pq k0; it
    cuts the slice at u div p (u div q) when r enters a new block of p (of q),
    and reuses the last column while (code, r div p, r div q) repeats, as
    r = 1 does after r = 0 for W.  Only the r < len(arr) are coded, and arr is
    padded to whole runs only when a run exists: the work is sized by the limit.
    """
    p, q, pq = sys.p, sys.q, sys.pq
    n = len(arr)
    codes = [_codes_of(sys, 1, r % q, r % p)[0][0] & bits for r in range(min(pq, n))]
    for u in range(2, min(pq, n)):
        arr[u:u + 1] = column(codes[u], arr[u // p:u // p + 1], arr[u // q:u // q + 1], arr[:1])
    k0, end = 1, -(-n // pq)
    if end > 1:
        arr += arr[:1] * (pq * end - n)  # padding, overwritten before anything reads it
    while k0 < end:
        k1, last = min(k0 * min(p, q), end), None
        at_pq = arr[k0:k1]
        for r in range(pq):
            if r % p == 0:
                at_p = arr[q * k0 + r // p : q * k1 : q]
            if r % q == 0:
                at_q = arr[p * k0 + r // q : p * k1 : p]
            key = (codes[r], r // p, r // q)
            if key != last:
                last, values = key, column(codes[r], at_p, at_q, at_pq)
            arr[pq * k0 + r : pq * k1 : pq] = values
        k0 = k1
    del arr[n:]


def count_fill(arr: array, sys: PQSystem) -> None:
    """W on 0..len(arr) - 1 by the rule of ``count_grid``, given arr[0] = arr[1] = 1.

    ``arr`` is an ``array``, one lane of ``arr.itemsize`` bytes per u.  A column
    that adds reads each of its operand slices as one integer, ``int.from_bytes``
    in the native byte order, and does one big-integer add (and subtract); a
    column of one term is that slice, and u = pq k + 1 shares the column of
    pq k.  No lane carries or borrows into the next: W(u) <= u^beta with
    beta <= 0.79, so W < 2^31 and P + Q < 2^32 for every u below 2^39, which
    ``CountTable.scan`` refuses; and P + Q - V = W >= 0.
    """
    typecode, size, order = arr.typecode, arr.itemsize, _sys.byteorder

    def column(code: int, at_p: array, at_q: array, at_pq: array) -> array:
        if not code & STEP_Q:
            return at_p if code & STEP_P else array(typecode, bytes(size * len(at_pq)))
        if not code & STEP_P:
            return at_q
        total = int.from_bytes(at_p, order) + int.from_bytes(at_q, order)
        if code & FILTERED:
            total -= int.from_bytes(at_pq, order)
        return array(typecode, total.to_bytes(size * len(at_pq), order))

    _fill_columns(arr, sys, STEP_P | STEP_Q | FILTERED, column)


#: A dense sigma byte where Omega is empty.  sigma(u) <= log2(u) + 1, so it
#: stays below 0x7E for every u below 2^125.
NO_SIGMA = 0x7F
#: The ``bytes.translate`` table of a ``+1`` column; NO_SIGMA stays NO_SIGMA.
_PLUS_ONE = bytes(x + 1 if x < NO_SIGMA else x for x in range(256))


def _at_least(x: int, y: int, guards: int) -> int:
    """The guard bit of each lane where x >= y: SWAR over lanes packed in ints,
    ``guards`` holding each lane's top bit, which no lane of x or y reaches
    (0x80 for bytes, 2^31 for 32-bit count lanes), so (x | guards) - y borrows
    from no other lane."""
    return ((x | guards) - y) & guards


def _byte_min(a: bytes, b: bytes) -> bytes:
    """The bytewise min of two byte strings of one length, each byte below 0x80:
    one ``_at_least`` over every byte lane at once, spread to 0xFF to pick b."""
    n = len(a)
    x, y = int.from_bytes(a, "little"), int.from_bytes(b, "little")
    b_lanes = _at_least(x, y, int.from_bytes(b"\x80" * n, "little")) >> 7
    return (x ^ ((x ^ y) & b_lanes * 0xFF)).to_bytes(n, "little")


def sigma_fill(arr: bytearray, sys: PQSystem) -> None:
    """sigma on 0..len(arr) - 1 by the rule of ``sigma_grid``, given arr[0] = 0, arr[1] = 1.

    ``arr`` holds one byte per u, NO_SIGMA where Omega is empty.  A ``+1``
    column is one ``translate`` of its slice by ``_PLUS_ONE``, and the min of
    two columns one ``_byte_min``.
    """

    def column(code: int, at_p: bytearray, at_q: bytearray, at_pq: bytearray) -> bytes:
        terms = [at.translate(_PLUS_ONE) if code & one else at
                 for at, step, one in ((at_p, STEP_P, ONE_P), (at_q, STEP_Q, ONE_Q)) if code & step]
        if len(terms) == 2:
            return _byte_min(*terms)
        return terms[0] if terms else bytes((NO_SIGMA,)) * len(at_pq)

    _fill_columns(arr, sys, STEP_P | ONE_P | STEP_Q | ONE_Q, column)
