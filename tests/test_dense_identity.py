"""The dense fills on typed buffers against the list fills they replace.

``count_fill`` runs on an ``array('I')`` of 32-bit lanes and ``sigma_fill``
on a ``bytearray`` (NO_SIGMA where Omega is empty), one big-integer or
bytewise pass per column.  The list fills below, one Python object per value,
are the reference: every lane must hold the value the list holds, on the
ranges and at the lengths where the doubling blocks of ``_fill_columns`` end.
The two byte-level pieces, the bytewise min and the ``+1`` table, are checked
on every pair and every value they can see.
"""

import math
import operator
from array import array

import pytest

from chainpart.core import make_system
from chainpart.counting import all_counters, make_counter
from chainpart.decomposition import (
    FILTERED,
    NO_SIGMA,
    ONE_P,
    ONE_Q,
    STEP_P,
    STEP_Q,
    _byte_min,
    _codes_of,
    _PLUS_ONE,
    count_fill,
)
from chainpart.shortest import ShortestTable

SYSTEMS = [(2, 3), (5, 11), (3, 4), (2, 9), (7, 13), (4, 9)]
LIMIT = 300_000


def list_fill_columns(arr, sys_, column):
    """``_fill_columns`` on a list, one Python object per value."""
    p, q, pq = sys_.p, sys_.q, sys_.pq
    codes = [_codes_of(sys_, 1, r % q, r % p)[0][0] for r in range(pq)]
    n = len(arr)
    for u in range(2, min(pq, n)):
        arr[u] = column(codes[u], [arr[u // p]], [arr[u // q]], [arr[0]])[0]
    k0, end = 1, -(-n // pq)
    arr += [None] * (pq * end - n)
    while k0 < end:
        k1 = min(k0 * min(p, q), end)
        for r in range(pq):
            arr[pq * k0 + r : pq * k1 : pq] = column(
                codes[r],
                arr[q * k0 + r // p : q * k1 : q],
                arr[p * k0 + r // q : p * k1 : p],
                arr[k0:k1],
            )
        k0 = k1
    del arr[n:]


def list_count_scan(limit, sys_):
    def column(code, at_p, at_q, at_pq):
        if not code & STEP_Q:
            return at_p if code & STEP_P else [0] * len(at_pq)
        if not code & STEP_P:
            return at_q
        total = list(map(operator.add, at_p, at_q))
        return list(map(operator.sub, total, at_pq)) if code & FILTERED else total

    arr = [1] * min(limit + 1, 2) + [0] * (limit - 1)
    list_fill_columns(arr, sys_, column)
    return arr


def list_sigma_scan(limit, sys_):
    def column(code, at_p, at_q, at_pq):
        terms = [
            [x + 1 if x != math.inf else math.inf for x in at] if code & one else at
            for at, step, one in ((at_p, STEP_P, ONE_P), (at_q, STEP_Q, ONE_Q))
            if code & step
        ]
        if len(terms) == 2:
            return list(map(min, *terms))
        return terms[0] if terms else [math.inf] * len(at_pq)

    arr = [0, 1][:limit + 1] + [0] * (limit - 1)
    list_fill_columns(arr, sys_, column)
    return arr


def block_edges(sys_, top):
    """Lengths pq k - 1, pq k and pq k + 1 at each k where a doubling block starts."""
    lengths, k = set(range(0, sys_.pq + 3)), 1
    while sys_.pq * k <= top:
        lengths |= {sys_.pq * k - 1, sys_.pq * k, sys_.pq * k + 1}
        k *= min(sys_.p, sys_.q)
    return sorted(lengths)


@pytest.mark.parametrize("pq", SYSTEMS)
def test_lane_fills_equal_the_list_fills(pq):
    sys_ = make_system(*pq)
    counts = make_counter(sys_).scan(LIMIT)
    assert counts.typecode == "I"
    assert list(counts) == list_count_scan(LIMIT, sys_)
    assert ShortestTable(sys_).scan(LIMIT) == list_sigma_scan(LIMIT, sys_)


@pytest.mark.parametrize("pq", SYSTEMS)
def test_lane_fills_at_every_doubling_block_edge(pq):
    sys_ = make_system(*pq)
    counter, table = make_counter(sys_), ShortestTable(sys_)
    for n in block_edges(sys_, 40_000):
        if n:
            assert list(counter.scan(n - 1)) == list_count_scan(n - 1, sys_), n
            assert table.scan(n - 1) == list_sigma_scan(n - 1, sys_), n


@pytest.mark.parametrize("pq", [(2, 3), (3, 4)])
def test_every_engine_scans_into_lanes(pq):
    reference = list_count_scan(5000, make_system(*pq))
    for engine in all_counters(make_system(*pq)):
        scan = engine.scan(5000)
        assert isinstance(scan, array) and scan.typecode == "I", type(engine).__name__
        assert list(scan) == reference, type(engine).__name__


@pytest.mark.parametrize("typecode", ["I", "Q"])
def test_count_fill_reads_the_lane_width_of_its_array(typecode):
    sys_ = make_system(2, 3)
    arr = array(typecode, [1, 1]) * 2500
    count_fill(arr, sys_)
    assert list(arr) == list_count_scan(4999, sys_)


def test_sigma_bytes_mark_each_empty_omega():
    sys_ = make_system(3, 5)
    dense = ShortestTable(sys_)._dense(20_000)
    reference = list_sigma_scan(20_000, sys_)
    assert list(dense) == [NO_SIGMA if s == math.inf else s for s in reference]
    assert NO_SIGMA in dense and max(x for x in dense if x != NO_SIGMA) < 0x7E


def test_byte_min_on_every_pair_in_one_call():
    a = bytes(x for x in range(128) for _ in range(128))
    b = bytes(y for _ in range(128) for y in range(128))
    assert NO_SIGMA in a and NO_SIGMA in b
    assert _byte_min(a, b) == bytes(map(min, a, b))


def test_plus_one_table_on_every_value():
    values = bytes(range(128))
    assert values.translate(_PLUS_ONE) == bytes(range(1, 128)) + bytes((NO_SIGMA,))
