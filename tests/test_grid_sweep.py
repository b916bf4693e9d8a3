"""The grid sweep behind the sparse W and sigma, and the branches of its cells.

Every node below U is a grid quotient U div (p^a q^b); the sweep must visit
exactly the nodes the general table reaches from U, agree with the
independent engines, and give the same values warm as fresh.  The branches
that ``CELL_BRANCHES`` reads from a cell's code must be the general table's
row, in the same order.
"""

import bisect
import functools
import math
import random
import sys
from collections import Counter

import pytest

from chainpart import decomposition
from chainpart.core import Partition, make_system, value
from chainpart.counting import CaseTableCounter, DirectSumCounter, HalvingCounter
from chainpart.decomposition import (
    CELL_BRANCHES,
    FILTERED,
    ONE_P,
    ONE_Q,
    STEP_P,
    STEP_Q,
    _chunk_cells,
    _count_pair,
    _fold_rows,
    _sigma_pair,
    count_grid,
    descend,
    grid_cells,
    segments,
    sigma_grid,
)
from chainpart.enumeration import sample_uniform
from chainpart.shortest import ShortestTable

SYSTEMS = [(2, 3), (3, 4), (5, 7), (3, 2), (2, 5), (7, 2)]


def grid_quotients(u, p, q):
    nodes = set()
    pb = 1
    while pb <= u:
        pa = pb
        while pa <= u:
            nodes.add(u // pa)
            pa *= p
        pb *= q
    return nodes


def reachable(u, table):
    """The nodes x >= 2 that the general ``table`` reaches from u (a plain search)."""
    seen, todo = set(), [u]
    while todo:
        x = todo.pop()
        if x < 2 or x in seen:
            continue
        seen.add(x)
        v, r = divmod(x, table.modulus)
        todo.extend(b.mul * v + b.off for b in table.rows[r])
    return seen


@pytest.mark.parametrize("pq", [(2, 3), (3, 4), (5, 7)])
def test_sweep_visits_exactly_the_reachable_grid_quotients(pq, general_table):
    sys_ = make_system(*pq)
    p, q = pq
    u = random.Random(150).randrange(10**149, 10**150)
    cells = grid_cells(u, sys_)
    visited = {(a, b) for b, codes in enumerate(cells) for a, code in enumerate(codes) if code}
    values = {u // (p**a * q**b) for a, b in visited}
    assert values <= grid_quotients(u, p, q)
    assert {x for x in values if x >= 2} == reachable(u, general_table(sys_))
    count, sigma = count_grid(u, sys_, 1), sigma_grid(u, sys_, 1)
    # the count fold leaves the codes as they are, and the sigma fold prunes
    assert count.cells == cells and is_pruned(cells, sigma.cells)
    for rows, _, tops in (count, sigma):
        assert tops == range(len(cells)) and len(rows) == len(cells)
        filled = {(a, b) for b, (row, codes) in enumerate(zip(rows, cells))
                  for a, x in enumerate(row[: len(codes)]) if x is not None}
        assert filled == visited


def count_row(codes, below, lo=0):
    """One row of the count fold: the pair kernel's row b under an empty row b - 1."""
    return _count_pair(bytearray(), codes, below, True, lo)[0]


def sigma_row(codes, below):
    """One row of the sigma fold, pruning ``codes``, as ``count_row``."""
    return _sigma_pair(bytearray(), codes, below, True)[0]


def count_row_by_bits(codes, below):
    """The count fold of one row by bit tests on each code, before kind bytes."""
    row = [None] * len(codes) + [1]
    w = 1
    for a, c in zip(range(len(codes) - 1, -1, -1), reversed(codes)):
        if not c:
            continue
        if c & STEP_Q:
            w = (w if c & STEP_P else 0) + below[a]
            if c & FILTERED:
                w -= below[a + 1]
        elif not c & STEP_P:
            w = 0
        row[a] = w
    return row


def sigma_row_by_bits(codes, below):
    """The sigma fold of one row by bit tests on each code, before kind bytes."""
    row = [None] * len(codes) + [0]
    best = 0
    for a, c in zip(range(len(codes) - 1, -1, -1), reversed(codes)):
        if not c:
            continue
        if not c & STEP_P:
            best = math.inf
        elif c & ONE_P:
            best += 1
        if c & STEP_Q:
            score = below[a] + 1 if c & ONE_Q else below[a]
            if score < best:
                best = score
        row[a] = best
    return row


def code_rows(rng):
    """Every code of six bits, alone, after each other code, and shuffled."""
    codes = list(range(64))
    rows = [bytes([c]) for c in codes] + [bytes([c, d]) for c in codes for d in codes]
    for _ in range(200):
        rng.shuffle(codes)
        rows.append(bytes(codes))
    return rows


def test_kind_byte_folds_equal_the_bit_folds():
    # every code of six bits, at every place of a row and after each other code
    rng = random.Random(64)
    for row in code_rows(rng):
        below = [rng.randrange(-10**30, 10**30) for _ in range(len(row) + 1)]
        assert count_row(bytearray(row), below) == count_row_by_bits(row, below), row
        below = [rng.choice((math.inf, rng.randrange(40))) for _ in range(len(row) + 1)]
        assert sigma_row(bytearray(row), below) == sigma_row_by_bits(row, below), row


def first_bits(code):
    """The code bits of the first of a cell's branches: its q side where
    ``CELL_BRANCHES`` lists q first, else its p side."""
    return STEP_Q | ONE_Q | FILTERED if CELL_BRANCHES[False][code][0].db else STEP_P | ONE_P


def is_pruned(old, new):
    """Whether each code of the rows ``new`` is that of ``old``, or, at a cell
    with two branches, that code less its first branch's bits."""
    if list(map(len, new)) != list(map(len, old)):
        return False
    return all(y == x or (len(CELL_BRANCHES[False][x]) == 2 and y == x & ~first_bits(x))
               for o, n in zip(old, new) for x, y in zip(o, n))


def test_sigma_fold_prunes_to_the_argmin_branch():
    # the fold leaves a code as it is or, at a cell with two branches whose
    # second scores strictly less, clears its first branch's bits: either way
    # the first branch left is the one that ``min`` takes over CELL_BRANCHES,
    # ties to the first
    rng = random.Random(65)
    for row in code_rows(rng):
        for values in ((0, 1), (math.inf, 0, 1, 2), (math.inf, *range(40))):
            below = [rng.choice(values) for _ in range(len(row) + 1)]
            codes = bytearray(row)
            sigma = sigma_row(codes, below)
            assert sigma == sigma_row_by_bits(row, below) and is_pruned([row], [codes]), row
            for a, code in enumerate(row):
                branches = CELL_BRANCHES[False][code]
                if not branches:
                    assert codes[a] == code, (row, a)
                    continue
                # a p side steps into the nearest reached cell to the right
                right = next(x for x in sigma[a + 1:] if x is not None)
                argmin = min(branches, key=lambda br: br.unit + (right if br.da else below[a]))
                assert CELL_BRANCHES[False][codes[a]][0] == argmin, (row, a, below)


def test_row_folds_start_at_the_first_reached_cell():
    # a leading run of unreached cells, then each shuffled row of codes: the
    # folds equal the bit folds right of lo (count) and on the whole row
    # (sigma), with None left of lo and the run's codes left zero; ``below``
    # holds None left of the first reached cell, so a read there raises
    rng = random.Random(67)
    for tail in code_rows(rng)[-200:]:
        for run in (0, 1, 7, 300):
            row = bytes(run) + tail
            first = len(row) - len(row.lstrip(b"\0"))
            full = [rng.randrange(-10**30, 10**30) for _ in range(len(row) + 1)]
            want = count_row_by_bits(row, full)
            for lo in sorted({0, run // 2, run, run + 1, first, first + 5}):
                start = max(lo, first)
                below = [None] * start + full[start:]
                codes = bytearray(row)
                assert count_row(codes, below, lo) == [None] * lo + want[lo:], (run, lo)
                assert codes == row, (run, lo)
            full = [rng.choice((math.inf, rng.randrange(40))) for _ in range(len(row) + 1)]
            below = [None] * first + full[first:]
            codes, alone = bytearray(row), bytearray(tail)
            sigma = sigma_row(codes, below)
            assert sigma == sigma_row_by_bits(row, full), run
            assert sigma[run:] == sigma_row(alone, full[run:]), run
            assert codes == bytes(run) + alone, run


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (2, 7), (3, 4)])
def test_unreached_cells_of_a_row_lead_it_on_p_2(pq):
    # on p = 2 every reached cell has STEP_P, so the unreached cells of a row
    # are the run left of its first reached cell, which the folds skip; on
    # p = 3 some row holds an unreached cell right of it, which they step over
    sys_ = make_system(*pq)
    rng = random.Random(68)
    spans = [[codes.lstrip(b"\0") for codes in grid_cells(u, sys_)]
             for u in (rng.randrange(10**149, 10**150), chain_sum(rng, 150, *pq))]
    if pq[0] == 2:
        for rows in spans:
            assert len(rows) > 50 and all(code & STEP_P for codes in rows for code in codes)
    else:
        rows = spans[1]  # a random U of 150 digits has a grid of one row on (3, 4)
        assert len(rows) > 50 and any(0 in codes for codes in rows)


def pruned_by_bits(codes, sigma, below):
    """``codes`` with the first branch's bits cleared at each cell with two
    branches whose second scores strictly less: ``sigma`` at the nearest
    reached cell to the right plus ONE_P against ``below`` plus ONE_Q."""
    out = bytearray(codes)
    for a, code in enumerate(codes):
        if code & STEP_P and code & STEP_Q:
            right = next(x for x in sigma[a + 1:] if x is not None)
            p_score, q_score = right + bool(code & ONE_P), below[a] + bool(code & ONE_Q)
            p_first = not CELL_BRANCHES[False][code][0].db
            if q_score < p_score if p_first else p_score < q_score:
                out[a] = code & ~first_bits(code)
    return bytes(out)


def with_reads_reached(up, low, rng):
    """``low`` with a reached code wherever row b - 1 of codes ``up`` reads
    row b: at each STEP_Q cell, and right of it when FILTERED."""
    low = bytearray(low)
    for a, code in enumerate(up):
        if code & STEP_Q:
            for x in (a, a + 1) if code & FILTERED else (a,):
                if x < len(low) and not low[x]:
                    low[x] = rng.randrange(1, 64)
    return bytes(low)


def test_pair_kernels_equal_the_row_by_row_bit_folds():
    # rows b - 1 and b: shuffled codes after a run of unreached cells, with
    # unreached cells inside, row b shorter than row b - 1, as long or longer;
    # each kernel's rows equal the bit folds of row b and then of row b - 1
    # (right of lo), row b only when kept, and the sigma kernel prunes both
    # rows' codes as the bit folds' argmin does
    rng = random.Random(69)
    for tail in code_rows(rng)[-200:]:
        up = bytes(rng.choice((0, 1, 9))) + tail
        length = max(0, len(up) + rng.randrange(-12, 13))
        low = bytes(rng.randrange(4)) + bytes(rng.choice((0, *range(1, 64))) for _ in range(length))
        low = with_reads_reached(up, low, rng)
        below = [rng.randrange(-10**30, 10**30) for _ in range(len(low) + 1)]
        lower = count_row_by_bits(low, below)
        upper = count_row_by_bits(up, lower + [1] * (len(up) - len(low)))
        for lo in (0, 1, len(up) // 2):
            for keep in (True, False):
                got = _count_pair(bytearray(up), bytearray(low), below, keep, lo)
                assert got[1] == [None] * lo + upper[lo:], (tail, lo)
                assert got[0] == ([None] * lo + lower[lo:] if keep else None), (tail, lo)
        below = [rng.choice((math.inf, rng.randrange(40))) for _ in range(len(low) + 1)]
        lower = sigma_row_by_bits(low, below)
        padded = lower + [0] * (len(up) - len(low))
        upper = sigma_row_by_bits(up, padded)
        for keep in (True, False):
            codes_up, codes_low = bytearray(up), bytearray(low)
            assert _sigma_pair(codes_up, codes_low, below, keep) == (lower if keep else None, upper)
            assert codes_low == pruned_by_bits(low, lower, below), tail
            assert codes_up == pruned_by_bits(up, upper, padded), tail


@pytest.mark.parametrize("pq", [(2, 3), (2, 7), (3, 4), (5, 7), (3, 2)])
def test_fold_rows_by_pairs_equals_the_row_by_row_fold(pq):
    # odd and even numbers of rows, kept lower rows or not, lo > 0 for the
    # count; on p >= 3 some lower row is longer than the one above it
    sys_ = make_system(*pq)
    rng = random.Random(70 + sum(pq))
    cells = grid_cells(chain_sum(rng, 120, *pq), sys_)
    n = len(cells)
    assert n > 20 and (pq[0] == 2 or any(len(cells[b]) > len(cells[b - 1]) for b in range(1, n)))
    for bs in (range(n), range(1, n), range(n // 2, n), range(n - 1, n)):
        rows = {}  # b: (the bit fold's rows of W and sigma, and the rows below them)
        below = [], []
        for b in reversed(bs):
            codes = cells[b]
            below = [row + [at_zero] * (len(codes) + 1 - len(row)) for row, at_zero in zip(below, (1, 0))]
            rows[b] = (count_row_by_bits(codes, below[0]), sigma_row_by_bits(codes, below[1])), below
            below = rows[b][0]
        for keep in (bs, range(bs.start, n, 3), (bs.start,)):
            for lo in (0, 2, len(cells[bs.start]) // 2):
                got = _fold_rows(cells, bs, [], 1, functools.partial(_count_pair, lo=lo), keep)
                assert [row[lo:] for row in got] == [rows[b][0][0][lo:] for b in bs if b in keep]
                assert all(set(row[:min(lo, len(row) - 1)]) <= {None} for row in got), (bs, lo)
            codes = [bytearray(row) for row in cells]
            got = _fold_rows(codes, bs, [], 0, _sigma_pair, keep)
            assert got == [rows[b][0][1] for b in bs if b in keep], bs
            assert codes[:bs.start] == cells[:bs.start], bs
            for b in bs:
                assert codes[b] == pruned_by_bits(cells[b], rows[b][0][1], rows[b][1][1]), (bs, b)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 15, 17])
def test_p_2_codes_from_bit_windows_equal_the_chunk_codes(q, monkeypatch):
    # every U <= 3000, then random U and chain sums of 20 to 600 digits; from
    # q = 17 on the chunk path runs
    sys_ = make_system(2, q)
    if q > 16:
        monkeypatch.setattr(decomposition, "_window_codes", None)
    rng = random.Random(71 + q)
    digits = range(20, 601, 20)
    us = [*range(1, 3001), *(rng.randrange(10**d) + 1 for d in digits), *(chain_sum(rng, d, 2, q) for d in digits)]
    for u in us:
        cells = grid_cells(u, sys_)
        assert cells == _chunk_cells(u, sys_) and all(type(codes) is bytearray for codes in cells), u


def chain_sum(rng, digits, p, q):
    """The sum of a random chain whose largest part has about ``digits`` digits."""
    top = digits * math.log(10)
    b = rng.randrange(int(top / math.log(q)))
    a = int((top - b * math.log(q)) / math.log(p))
    total = 0
    while a >= 0 and b >= 0:
        total += p**a * q**b
        da, db = rng.choice(((1, 0), (0, 1), (1, 1), (2, 0), (3, 1)))
        a, b = a - da, b - db
    return total


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4), (5, 7), (3, 2), (2, 17)])
def test_every_row_of_a_grid_holds_a_reached_cell(pq):
    # the rows end at the last one with a reached cell: the q branch of the
    # leaf N = 1 seeds N = 0, past the end of the row below, and adds no row;
    # every U <= 3000, then chain sums of 20 to 600 digits on (2, 3) (bit
    # windows), (2, 17) (chunk tables on p = 2) and (3, 4)
    sys_ = make_system(*pq)
    rng = random.Random(72 + sum(pq))
    us = [*range(1, 3001)]
    if pq in ((2, 3), (2, 17), (3, 4)):
        us += [chain_sum(rng, d, *pq) for d in range(20, 601, 20)]
    for u in us:
        assert all(any(codes) for codes in grid_cells(u, sys_)), u


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4), (5, 7), (3, 2)])
def test_witness_is_the_every_row_argmin(pq):
    # the witness from the pruned codes of two rows against a min over the
    # branches of each cell of the unpruned codes, scored on every row of sigma
    sys_ = make_system(*pq)
    rng = random.Random(66 + sum(pq))
    table = ShortestTable(sys_)
    for digits in (100, 150, 200, 300):
        u = chain_sum(rng, digits, *pq)
        rows = sigma_grid(u, sys_, 1).rows

        def argmin(a, b, branches):
            return min(branches, key=lambda br: br.unit + rows[b + br.db][a + br.da])

        parts = []
        descend(grid_cells(u, sys_), 0, 0, False, parts, argmin)
        res = table.witness(u)
        assert res.witness == Partition(parts[::-1]), (pq, digits)
        assert res.sigma == rows[0][0] == len(parts)


def refolded(grid, lo_of):
    """(top, rows, lo) of each segment that ``segments`` yields on a Grid of W, whose
    ``least()`` is ``lo_of(the length of the kept row above)``: rows right of lo are W."""
    cells, tops = grid.cells, grid.tops
    start = 0  # the top of the next segment

    def least():
        return lo_of(len(cells[tops[bisect.bisect_right(tops, start) - 1]]))

    for top, rows in segments(grid, least):
        assert top == start and len(rows) >= 2, (top, start)
        yield top, rows, least()
        start = top + len(rows) - 1
    assert start == len(cells)


@pytest.mark.parametrize("pq", SYSTEMS)
def test_refold_gives_the_rows_right_of_its_column(pq):
    # the segments of every layout, refolded right of each column, cover the
    # rows from 0 to one past the grid, each equal right of it to the
    # every-row grid's, and start at every kept row
    sys_ = make_system(*pq)
    u = random.Random(sum(pq)).randrange(10**99, 10**100)
    rows, cells, _ = count_grid(u, sys_, 1)
    for every in (0, 1, 2, 5, None):
        grid = count_grid(u, sys_, every)
        tops = grid.tops
        assert grid.rows == [rows[b] for b in tops]
        for lo_of in (lambda n: 0, lambda n: 1, lambda n: n // 2, lambda n: n - 1):
            starts = set()
            for top, segment, lo in refolded(grid, lo_of):
                starts.add(top)
                for b, row in enumerate(segment, top):
                    full = rows[b] if b < len(rows) else []
                    assert len(row) == len(full) and row[lo:] == full[lo:], (every, top, lo, b)
            assert starts >= set(tops), every


@pytest.mark.parametrize("whole_bytes", [decomposition._WHOLE_BYTES, 0])
@pytest.mark.parametrize("pq", SYSTEMS)
def test_split_keeps_the_binomial_checkpoints_of_a_segment(pq, whole_bytes, monkeypatch):
    # from the bottom of a segment of n rows between kept ones, checkpoints
    # every s + 1 rows, then every s, ..., with s the least that C(s + 2, 2) > n,
    # or none when its rows hold under _WHOLE_BYTES (at 0, never): the tops
    # that ``segments`` yields; their rows, right of the cut, are the
    # every-row grid's
    monkeypatch.setattr(decomposition, "_WHOLE_BYTES", whole_bytes)
    sys_ = make_system(*pq)
    u = random.Random(sum(pq)).randrange(10**199, 10**200)
    rows, cells, _ = count_grid(u, sys_, 1)
    grid = count_grid(u, sys_, None)
    tops = grid.tops
    assert tops[0] == 0 and list(tops) == sorted(set(tops)) and type(tops) is tuple
    ends = (*tops[1:], len(cells))
    kinds = set()
    for lo_of in (lambda n: 0, lambda n: n // 2):
        subs = {top: [] for top in tops}  # the tops yielded in each kept segment
        for sub, segment, lo in refolded(grid, lo_of):
            subs[tops[bisect.bisect_right(tops, sub) - 1]].append(sub)
            for b in (sub, sub + len(segment) - 1):
                full = rows[b] if b < len(rows) else []
                row = segment[b - sub]
                assert len(row) == len(full) and row[lo:] == full[lo:], (pq, sub, lo, b)
        for top, end in zip(tops, ends):
            n = end - top - 1
            s = next(s for s in range(n + 1) if math.comb(s + 2, 2) > n)
            whole = sum(map(decomposition._row_bytes, cells[top + 1:end])) < whole_bytes
            kinds.add(whole)
            assert subs[top][0] == top, (pq, top)
            gaps = [b - a for a, b in zip(subs[top], subs[top][1:] + [end])][::-1]
            if whole:
                assert gaps == [end - top], (pq, top, gaps)
                continue
            assert gaps[:-1] == list(range(s + 1, s + 2 - len(gaps), -1)), (pq, top, gaps)
            assert 0 < gaps[-1] <= s + 2 - len(gaps), (pq, top, gaps)
    assert whole_bytes or kinds == {False}, pq


@pytest.mark.parametrize("pq", [(2, 3), (3, 2)])
def test_segments_hold_no_yielded_segment(pq):
    # once yielded, a segment and the rows refolded between its checkpoints
    # are referenced only by the caller: a generator that kept either would
    # hold two segments at once while it refolds the next, which raises the
    # sampler's peak
    sys_ = make_system(*pq)
    grid = count_grid(random.Random(sum(pq)).randrange(10**299, 10**300), sys_, None)
    held, between = [], 0
    for top, segment in segments(grid, lambda: 0):
        held.append(sys.getrefcount(segment))
        held.extend(sys.getrefcount(segment[k]) for k in range(1, len(segment) - 1))
        between += len(segment) - 2
        del segment
    assert between > 0 and set(held) == {2}, held


def test_sample_at_10_600_folds_no_row_more_than_three_times(sys23, monkeypatch):
    # the sweep folds each row once, ``segments`` the rows between two kept
    # rows once more and those between two binomial checkpoints once more
    folds, fold_rows = Counter(), decomposition._fold_rows

    def counted(cells, bs, *args):
        folds.update(bs)
        return fold_rows(cells, bs, *args)

    monkeypatch.setattr(decomposition, "_fold_rows", counted)
    members = list(sample_uniform(10**600, sys23, 4, 4))
    assert len(members) == 4 and all(value(pt, sys23) == 10**600 for pt in members)
    assert len(folds) == 897 and max(folds.values()) <= 3 and 3 in folds.values()


def test_witness_and_sampler_sweep_once(sys23, monkeypatch):
    # the witness keeps the sigma of its sweep, and the sampler's refolds run
    # the row loop on the kept cells, not a second sweep
    sweep, calls = decomposition._sweep, []

    def counted(u, *args):
        calls.append(u)
        return sweep(u, *args)

    monkeypatch.setattr(decomposition, "_sweep", counted)
    u = 10**100
    assert ShortestTable(sys23).witness(u).u == u
    assert calls == [u]
    assert len(list(sample_uniform(u, sys23, 0, 4))) == 4
    assert calls == [u, u]


@pytest.mark.parametrize("pq", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3),
                                (3, 5), (5, 7), (7, 5), (2, 9)])
def test_cell_branches_are_the_general_table_rows(pq, general_table):
    # a filtered branch only enters a node divisible by p, whose first branch,
    # the p-scaled one, it drops
    sys_ = make_system(*pq)
    table = general_table(sys_)
    for r, row in enumerate(table.rows):
        code = grid_cells(sys_.pq + r, sys_)[0][0]
        states = [(False, row)] + ([(True, row[1:])] if r % sys_.p == 0 else [])
        for filtered, branches in states:
            expected = [(*branch.below(0, 0), branch.labels[0] == "1", branch.filtered)
                        for branch in branches]
            assert [tuple(b) for b in CELL_BRANCHES[filtered][code]] == expected, (r, filtered)


def test_tables_hold_only_the_queried_sums():
    sys_ = make_system(2, 3)
    u = random.Random(151).randrange(10**149, 10**150)
    counter, table = CaseTableCounter(sys_), ShortestTable(sys_)
    assert counter.w(u) == HalvingCounter(sys_).w(u)
    table.sigma_or_inf(u)
    assert set(counter.table) == set(table.table) == {0, 1, u}


@pytest.mark.parametrize("pq", SYSTEMS)
def test_sweep_agrees_with_the_other_engines(pq):
    sys_ = make_system(*pq)
    rng = random.Random(sum(pq))
    counter, direct = CaseTableCounter(sys_), DirectSumCounter(sys_)
    halving = HalvingCounter(sys_) if sys_.p == 2 else None
    for digits in (5, 20, 60, 120):
        u = rng.randrange(10**digits)
        # the direct sum needs seconds past 60 digits when p = 2
        if digits <= 60 or sys_.p > 2:
            assert counter.w(u) == direct.w(u), u
        if halving:
            assert counter.w(u) == halving.w(u), u
    assert [counter.w(u) for u in range(3001)] == list(counter.scan(3000))


@pytest.mark.parametrize("pq", SYSTEMS)
def test_sigma_sweep_matches_the_dense_scan(pq):
    sys_ = make_system(*pq)
    dense = ShortestTable(sys_).scan(3000)
    ascending, descending = ShortestTable(sys_), ShortestTable(sys_)
    assert [ascending.sigma_or_inf(u) for u in range(3001)] == dense
    assert [descending.sigma_or_inf(u) for u in range(3000, -1, -1)] == dense[::-1]


@pytest.mark.parametrize("pq", SYSTEMS)
def test_warm_engine_matches_fresh(pq):
    sys_ = make_system(*pq)
    rng = random.Random(7 * sum(pq))
    u = rng.randrange(10**80, 10**81)
    counter, table = CaseTableCounter(sys_), ShortestTable(sys_)
    counter.w(u)
    table.sigma_or_inf(u)
    nearby = [u + d for d in range(-4, 5)] + [u // sys_.p + 1, u * sys_.q + 1]
    unrelated = [rng.randrange(10**digits) for digits in (3, 30, 90)]
    for x in nearby + unrelated:
        assert counter.w(x) == CaseTableCounter(sys_).w(x), x
        assert table.sigma_or_inf(x) == ShortestTable(sys_).sigma_or_inf(x), x
