"""The dense-scan commands against the per-row and per-u loops they replace.

``scan w`` writes its rows 1,000 per write from cached text (``cli._print_numbered``);
the other row-per-record output goes out in blocks of ``cli._BLOCK_LINES``
lines, and the analytics reports read their scan in slice passes.  The old
loops are kept here as the reference: output must match them byte for byte on
both sides of every block boundary, and each report must match field for
field, including the order of the violations when counts are corrupted on
purpose.  The ``%``-block writer that ``scan w`` used before is kept as a
faster reference for a million rows.
"""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import chainpart
from chainpart import analytics, cli, counting, shortest
from chainpart.core import InvariantViolationError, UnreachableSumError, make_system

BLOCK = cli._BLOCK_LINES
LIMITS = (BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)
REPORT_LIMIT = 30_000
SYSTEMS = ((2, 3), (2, 5), (3, 4), (7, 8))
P2_SYSTEMS = ((2, 3), (2, 5), (2, 7), (2, 9))


def stdout_of(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Row output: the per-row print loops of the scan commands
# ---------------------------------------------------------------------------


def old_scan_w(limit: int, sys_, emit: str) -> str:
    out = io.StringIO()
    arr = counting.make_counter(sys_).scan(limit)
    if emit == "csv":
        print("u,w", file=out)
        for u, w in enumerate(arr):
            print(f"{u},{w}", file=out)
    else:
        for u, w in enumerate(arr):
            print(json.dumps({"u": u, "w": str(w)}, separators=(",", ":")), file=out)
    return out.getvalue()


def old_scan_maxw(limit: int, sys_, emit: str) -> str:
    out = io.StringIO()
    report = analytics.max_count_jumps(limit, sys_)
    if emit == "csv":
        print("u,maxw,class", file=out)
        for rec in report.records:
            klass = "q-odd" if rec.odd_multiple else "2q2-exception"
            print(f"{rec.u},{rec.value},{klass}", file=out)
    else:
        for rec in report.records:
            print(json.dumps(
                {"u": rec.u, "maxw": str(rec.value),
                 "class": "q-odd" if rec.odd_multiple else "2q2-exception"},
                separators=(",", ":")), file=out)
    return out.getvalue()


@pytest.mark.parametrize("emit", ["csv", "json"])
@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (7, 8)])
def test_scan_w_rows_match_the_per_row_loop(p, q, limit, emit):
    argv = ["scan", "w", "--limit", str(limit), "--emit", emit, "--p", str(p), "--q", str(q)]
    assert stdout_of(argv) == (0, old_scan_w(limit, make_system(p, q), emit))


@pytest.mark.parametrize("block", [BLOCK, 7])
@pytest.mark.parametrize("emit", ["csv", "json"])
@pytest.mark.parametrize("p,q", [(2, 3), (2, 5)])
def test_scan_maxw_rows_match_the_per_row_loop(monkeypatch, p, q, emit, block):
    # The jump records are few, so a block of 7 lines makes them cross blocks.
    monkeypatch.setattr(cli, "_BLOCK_LINES", block)
    for limit in LIMITS:
        argv = ["scan", "maxw", "--limit", str(limit), "--emit", emit,
                "--p", str(p), "--q", str(q)]
        assert stdout_of(argv) == (0, old_scan_maxw(limit, make_system(p, q), emit))


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (7, 8)])
def test_scan_w_rows_cross_thousand_blocks(p, q):
    # the first block, whose row numbers are plain text, and the blocks where
    # the text of u div 1000 gains a digit
    for limit in (0, 1, 2, 998, 999, 1000, 1001, 1999, 9999, 10000, 10001, 100001):
        for emit in ("csv", "json"):
            argv = ["scan", "w", "--limit", str(limit), "--emit", emit,
                    "--p", str(p), "--q", str(q)]
            assert stdout_of(argv) == (0, old_scan_w(limit, make_system(p, q), emit))


def percent_block_scan_w(limit: int, sys_, emit: str) -> str:
    """``scan w`` as one ``%`` over each block of 4,096 rows."""
    arr = counting.make_counter(sys_).scan(limit)
    row = "%d,%d\n" if emit == "csv" else '{"u":%d,"w":"%d"}\n'
    out = ["u,w\n"] if emit == "csv" else []
    for lo in range(0, len(arr), 4096):
        block = arr[lo:lo + 4096]
        pairs = itertools.chain.from_iterable(zip(range(lo, lo + len(block)), block))
        out.append(row * len(block) % tuple(pairs))
    return "".join(out)


@pytest.mark.parametrize("emit", ["csv", "json"])
@pytest.mark.parametrize("p,q", [(2, 3), (5, 11)])
def test_scan_w_rows_match_the_percent_blocks_to_a_million(p, q, emit):
    # row numbers of 5, 6 and 7 digits, and every distinct W below 10^6
    argv = ["scan", "w", "--limit", "1000000", "--emit", emit, "--p", str(p), "--q", str(q)]
    assert stdout_of(argv) == (0, percent_block_scan_w(10**6, make_system(p, q), emit))


def test_print_numbered_looks_up_stdout_per_call(monkeypatch):
    first, second = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", first)
    cli._print_numbered("<", ":", ">\n", [5, 6])
    monkeypatch.setattr(sys, "stdout", second)
    cli._print_numbered("", "!", "\n", [7])
    cli._print_numbered("", ",", "\n", [])
    assert (first.getvalue(), second.getvalue()) == ("<0:5>\n<1:6>\n", "0!7\n")


# ---------------------------------------------------------------------------
# Reports: the per-u loops of analytics and shortest
# ---------------------------------------------------------------------------


def old_growth_bound(limit, arr, beta):
    worst = 0.0
    bad = []
    for u in range(1, limit + 1):
        bound = u**beta
        ratio = arr[u] / bound
        if ratio > worst:
            worst = ratio
        if arr[u] > bound:
            bad.append(u)
    return worst, tuple(bad)


def old_monotonicity(limit, q, arr):
    bad = []
    for u in range(0, limit // q + 1):
        base = q * u
        if not arr[base] >= arr[base + 1]:
            bad.append(f"W({base}) < W({base + 1})")
        if u >= 1 and not arr[base + 1] >= arr[base - 1]:
            bad.append(f"W({base + 1}) < W({base - 1})")
        for r in range(1, q - 1):
            if not arr[base + r] >= arr[base + r + 1]:
                bad.append(f"W({base + r}) < W({base + r + 1})")
    return tuple(bad)


def old_jumps(limit, q, arr):
    records, exceptions = [], []
    running = 1
    for u in range(1, limit + 1):
        w = arr[u]
        if w <= running:
            continue
        running = w
        assert u % q == 0
        odd = (u // q) % 2 == 1
        records.append(analytics.JumpRecord(u, w, odd))
        if not odd:
            exceptions.append(u)
    return tuple(records), tuple(exceptions)


def old_small_counts(limit, arr):
    ones = {u for u in range(limit + 1) if arr[u] == 1}
    twos = {u for u in range(limit + 1) if arr[u] == 2}

    def geometric(seed):
        out, x = set(), seed - 1
        while x <= limit:
            out.add(x)
            x = 2 * (x + 1) - 1
        return out

    predicted_ones = ({0, 1} | geometric(3)) & set(range(limit + 1))
    predicted_twos = ({3, 4, 6, 7} | geometric(9) | geometric(15)) & set(range(limit + 1))
    if ones != predicted_ones:
        raise InvariantViolationError(
            f"{{W=1}} characterization fails at {sorted(ones ^ predicted_ones)[:5]}")
    if twos != predicted_twos:
        raise InvariantViolationError(
            f"{{W=2}} characterization fails at {sorted(twos ^ predicted_twos)[:5]}")
    return tuple(sorted(ones)), tuple(sorted(twos))


def old_prefix_sums(limit, counts):
    sums = [0] * (limit + 1)
    acc = 0
    for u in range(1, limit + 1):
        acc += counts[u]
        sums[u] = acc
    return sums


def old_sigma_stats(limit, arr):
    histogram = {}
    total = 0.0
    for u in range(2, limit + 1):
        s = arr[u]
        if s == math.inf:
            continue
        s = int(s)
        histogram[s] = histogram.get(s, 0) + 1
        total += 4.0 * s / math.log2(u)
    return total / sum(histogram.values()), dict(sorted(histogram.items()))


@pytest.fixture(scope="module")
def scans():
    """W on 0..REPORT_LIMIT + 9 for every system used below."""
    return {pq: counting.make_counter(make_system(*pq)).scan(REPORT_LIMIT + 9)
            for pq in set(SYSTEMS) | set(P2_SYSTEMS)}


@pytest.mark.parametrize("p,q", SYSTEMS)
def test_growth_bound_matches_the_loop(scans, p, q):
    sys_ = make_system(p, q)
    for limit in (0, 1, 2, 513, REPORT_LIMIT):
        arr = scans[p, q][:limit + 1]
        report = analytics.check_growth_bound(limit, sys_, arr)
        assert (report.max_ratio, report.violations) == old_growth_bound(limit, arr, report.beta)
    assert report == analytics.check_growth_bound(REPORT_LIMIT, sys_)


@pytest.mark.parametrize("p,q", SYSTEMS)
def test_growth_bound_violations_keep_their_order(scans, p, q):
    sys_ = make_system(p, q)
    arr = list(scans[p, q][:REPORT_LIMIT + 1])
    # A big jump, then smaller breaks after it that are no running maximum.
    for u, w in ((97, 10**6), (98, 10**5), (500, 10**5), (20_000, 10**7), (29_999, 10**6)):
        arr[u] = w
    report = analytics.check_growth_bound(REPORT_LIMIT, sys_, arr)
    expected = old_growth_bound(REPORT_LIMIT, arr, report.beta)
    assert (report.max_ratio, report.violations) == expected
    assert {97, 98, 500, 20_000, 29_999} <= set(report.violations)


@pytest.mark.parametrize("p,q", P2_SYSTEMS)
def test_monotonicity_matches_the_loop(scans, p, q):
    arr = scans[p, q]
    for limit in (REPORT_LIMIT, REPORT_LIMIT - 1, q - 1, 0):
        report = analytics.check_local_monotonicity(limit, make_system(p, q), arr)
        assert report.violations == old_monotonicity(limit, q, arr) == ()


@pytest.mark.parametrize("p,q", P2_SYSTEMS)
def test_monotonicity_violations_keep_their_order(scans, p, q):
    arr = list(scans[p, q])
    # Breaks at a base, just after a base and just before one, and at the ends;
    # each failed check is listed once.
    last = REPORT_LIMIT // q * q
    for u in (q, 7 * q + 1, 100 * q + 2, 200 * q + 1, last):
        arr[u] = 0
    for u in (1, 7 * q - 1, last + q - 1):
        arr[u] += 10**6
    report = analytics.check_local_monotonicity(REPORT_LIMIT, make_system(p, q), arr)
    assert report.violations == old_monotonicity(REPORT_LIMIT, q, arr)
    assert len(set(report.violations)) == len(report.violations) >= 8


@pytest.mark.parametrize("p,q", P2_SYSTEMS)
def test_jump_records_match_the_loop(scans, p, q):
    arr = scans[p, q][:REPORT_LIMIT + 1]
    report = analytics.max_count_jumps(REPORT_LIMIT, make_system(p, q), arr)
    assert (report.records, report.conjecture_exceptions) == old_jumps(REPORT_LIMIT, q, arr)


@pytest.mark.parametrize("check", [analytics.max_count_jumps, analytics.check_growth_bound])
def test_counts_short_of_the_limit_are_refused(scans, check):
    with pytest.raises(ValueError, match="need counts through 30000, got 29999"):
        check(REPORT_LIMIT, make_system(2, 3), scans[2, 3][:REPORT_LIMIT])


def test_jump_error_is_the_first_bad_jump(scans):
    arr = list(scans[2, 3][:REPORT_LIMIT + 1])
    arr[1000] = arr[1001] = 10**6  # 1000 and 1001 are no multiples of 3
    with pytest.raises(InvariantViolationError, match="jump at 1000 not divisible"):
        analytics.max_count_jumps(REPORT_LIMIT, make_system(2, 3), arr)


def test_small_counts_match_the_loop(scans):
    sys23 = make_system(2, 3)
    for limit in (0, 1, 5, 6, 7, 1535, REPORT_LIMIT):
        arr = scans[2, 3][:limit + 1]
        report = analytics.classify_small_counts(limit, sys23, arr)
        assert (report.ones, report.twos) == old_small_counts(limit, arr)


@pytest.mark.parametrize("u,w", [(40, 1), (5, 3), (4, 1), (23, 2), (35, 7), (9 * 2**10 - 1, 5)])
def test_small_count_errors_match_the_loop(scans, u, w):
    arr = list(scans[2, 3][:REPORT_LIMIT + 1])
    arr[u] = w
    with pytest.raises(InvariantViolationError) as old:
        old_small_counts(REPORT_LIMIT, arr)
    with pytest.raises(InvariantViolationError) as new:
        analytics.classify_small_counts(REPORT_LIMIT, make_system(2, 3), arr)
    assert str(new.value) == str(old.value)


def test_small_counts_hold_no_table_of_the_range():
    sys23 = make_system(2, 3)
    limit = 200_000
    counts = counting.make_counter(sys23).scan(limit)
    tracemalloc.start()
    try:
        report = analytics.classify_small_counts(limit, sys23, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ones[-1] <= limit
    assert peak < 2 * 2**20


@pytest.mark.parametrize("p,q", SYSTEMS)
def test_prefix_sums_match_the_loop(p, q):
    prefix = analytics.PrefixSums(make_system(p, q), REPORT_LIMIT)
    assert list(prefix._sums) == old_prefix_sums(REPORT_LIMIT, prefix.counter.scan(REPORT_LIMIT))
    assert list(analytics.PrefixSums(make_system(p, q), 0)._sums) == [0]


@pytest.mark.parametrize("p,q", SYSTEMS)
def test_sigma_stats_match_the_loop(p, q):
    table = shortest.ShortestTable(make_system(p, q))
    arr = table.scan(REPORT_LIMIT)
    for limit in (2, 3, 1000, REPORT_LIMIT):
        try:
            expected = old_sigma_stats(limit, arr)
        except ZeroDivisionError:  # no reachable sum in [2, limit]
            with pytest.raises(UnreachableSumError):
                table.stats(limit)
            continue
        stats = table.stats(limit)
        assert (stats.mean_ratio, stats.histogram) == expected
        assert list(stats.histogram) == sorted(stats.histogram)


@pytest.mark.parametrize("p,q", SYSTEMS)
def test_sigma_histogram_matches_the_stats(p, q):
    # the histogram alone: the same rows in the same order, and the same errors
    table = shortest.ShortestTable(make_system(p, q))
    arr = table.scan(REPORT_LIMIT)
    for limit in (2, 3, 1000, REPORT_LIMIT):
        if all(map(math.isinf, arr[2:limit + 1])):  # no reachable sum in [2, limit]
            messages = []
            for method in (table.stats, table.histogram):
                with pytest.raises(UnreachableSumError) as raised:
                    method(limit)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
            continue
        expected = table.stats(limit).histogram
        assert list(table.histogram(limit).items()) == list(expected.items())
    for limit in (1, 0, -1):
        for method in (table.stats, table.histogram):
            with pytest.raises(ValueError, match=r"^limit must be >= 2$"):
                method(limit)


@pytest.mark.parametrize("p,q", SYSTEMS)
def test_sumfn_ratios_match_the_loop(p, q):
    sys_ = make_system(p, q)
    estimate = analytics.estimate_growth_constant(sys_, REPORT_LIMIT)
    sums = old_prefix_sums(REPORT_LIMIT, counting.make_counter(sys_).scan(REPORT_LIMIT))
    assert [(x, s) for x, s, _ in estimate.samples] == [
        (2**k, sums[2**k]) for k in range(1, REPORT_LIMIT.bit_length())]
    assert [r for _, _, r in estimate.samples] == [
        sums[2**k] / (2**k) ** estimate.alpha for k in range(1, REPORT_LIMIT.bit_length())]


# ---------------------------------------------------------------------------
# Lanes: the refused limit, and the SWAR screens against the loops at their
# slice and block edges
# ---------------------------------------------------------------------------

TOP = 2**31 - 1  # the largest lane value the screens take
EDGE_U = 2 * analytics.LANE_BLOCK + 5  # the u = limit div q of checks across two block edges


def old_running_max(arr, start, stop, running):
    found = []
    for u in range(start, stop):
        if arr[u] > running:
            running = arr[u]
            found.append(u)
    return found


@pytest.fixture(scope="module")
def edge_scans():
    """W through q * EDGE_U + q, so the monotonicity checks cross two block edges."""
    return {q: counting.make_counter(make_system(2, q)).scan(q * EDGE_U + q)
            for q in (3, 5, 9)}


@pytest.mark.parametrize("mode", ["w", "maxw", "monotonicity", "smallw", "bound"])
def test_scan_past_the_lane_bound_is_refused_before_allocating(mode):
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["scan", mode, "--limit", str(counting.LANE_LIMIT)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == "error: limit must be below 2^39, where W fits a 32-bit lane\n"
    assert peak < 2**20, peak


def test_every_engine_refuses_the_lane_bound():
    for engine in counting.all_counters(make_system(2, 3)):
        with pytest.raises(ValueError, match="below 2\\^39"):
            engine.scan(counting.LANE_LIMIT)


@pytest.mark.parametrize("start", [1, 2])
def test_jump_screen_matches_the_loop_at_slice_edges(scans, start):
    # slices start at ``start``: jumps in the last lane of one slice and the
    # first of the next, two in one slice, and 2^31 - 1 as the running maximum
    edge = start + analytics.JUMP_SLICE
    arr = list(scans[2, 3][:REPORT_LIMIT + 1])
    for i, u in enumerate((edge - 1, edge, edge + 2 * analytics.JUMP_SLICE - 1,
                           edge + 3000, edge + 3001, edge + 9000)):
        arr[u] = 10**6 + i
    arr[edge + 10_000] = arr[edge + 10_001] = arr[REPORT_LIMIT] = TOP
    expected = old_running_max(arr, start, REPORT_LIMIT + 1, 1)
    assert expected[-1] == edge + 10_000
    for counts in (arr, array("I", arr)):
        assert analytics._jumps(analytics._lanes(counts), start, REPORT_LIMIT + 1, 1) == expected
    report = analytics.check_growth_bound(REPORT_LIMIT, make_system(2, 3), arr)
    assert (report.max_ratio, report.violations) == old_growth_bound(REPORT_LIMIT, arr, report.beta)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_monotonicity_screen_matches_the_loop_at_block_edges(edge_scans, q):
    arr = list(edge_scans[q])
    block = analytics.LANE_BLOCK
    # breaks in the last u of a block and the first of the next, the check
    # W(qu + 1) >= W(qu - 1) reaching back into the block before, and lanes of
    # 2^31 - 1: equal neighbours pass, a smaller one breaks
    for u in (block - 1, block, 2 * block - 1):
        arr[q * u] = 0
    arr[q * block - 1] = arr[q * 2 * block - 1] = TOP
    arr[q * (block + 7) + 1] = arr[q * (block + 7) + 2] = TOP
    arr[q * (block + 9)] = arr[q * (block + 9) + 1] = TOP
    report = analytics.check_local_monotonicity(q * EDGE_U, make_system(2, q), arr)
    expected = old_monotonicity(q * EDGE_U, q, arr)
    assert report.violations == expected
    assert {f"W({q * block - q}) < W({q * block - q + 1})", f"W({q * block}) < W({q * block + 1})",
            f"W({q * block + 1}) < W({q * block - 1})"} <= set(expected)
    assert report == analytics.check_local_monotonicity(q * EDGE_U, make_system(2, q),
                                                        array("I", arr))


def test_small_count_screen_matches_the_loop_at_block_edges(scans):
    block = analytics.LANE_BLOCK
    arr = list(scans[2, 3][:REPORT_LIMIT + 1])
    arr[block - 2] = arr[block - 1] = TOP
    report = analytics.classify_small_counts(REPORT_LIMIT, make_system(2, 3), arr)
    assert (report.ones, report.twos) == old_small_counts(REPORT_LIMIT, arr)
    for u, w in ((block - 1, 1), (block, 2), (block + 1, 1)):
        arr[u] = w
        with pytest.raises(InvariantViolationError) as old:
            old_small_counts(REPORT_LIMIT, arr)
        with pytest.raises(InvariantViolationError) as new:
            analytics.classify_small_counts(REPORT_LIMIT, make_system(2, 3), array("I", arr))
        assert str(new.value) == str(old.value)


def test_reports_of_a_list_equal_those_of_its_lanes(edge_scans):
    sys23, counts = make_system(2, 3), edge_scans[3]
    for check in (analytics.check_local_monotonicity, analytics.max_count_jumps,
                  analytics.classify_small_counts, analytics.check_growth_bound):
        reports = [check(3 * EDGE_U, sys23, arg)
                   for arg in (counts, list(counts), array("Q", counts), tuple(counts))]
        assert reports[1:] == reports[:-1], check.__name__


@pytest.mark.parametrize("check", [analytics.check_local_monotonicity, analytics.max_count_jumps,
                                   analytics.classify_small_counts, analytics.check_growth_bound])
def test_a_count_past_the_lane_bound_is_refused(scans, check):
    arr = list(scans[2, 3][:REPORT_LIMIT + 4])
    arr[REPORT_LIMIT // 2] = TOP + 1
    with pytest.raises(ValueError, match="at or past 2\\^31"):
        check(REPORT_LIMIT, make_system(2, 3), arr)


# ---------------------------------------------------------------------------
# Import cost: no process pool behind the CLI
# ---------------------------------------------------------------------------


def test_cli_import_loads_no_process_pool():
    src = str(Path(chainpart.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, chainpart.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
