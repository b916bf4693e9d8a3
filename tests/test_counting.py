"""The three counting engines, the digit indicator, and their identities."""

import random
import tracemalloc

import pytest

from chainpart.core import InvalidSystemError, chain_census, make_system
from chainpart.counting import (
    CaseTableCounter,
    DirectSumCounter,
    HalvingCounter,
    all_counters,
    digits_zero_one,
    make_counter,
)
from chainpart.decomposition import count_grid, sigma_grid
from chainpart.shortest import ShortestTable


def summand_indicator(c, u, sys_):
    """delta(c, u) of the direct sum, evaluated as written: 1 iff
    floor(u / p^c) = 1 mod q and u mod p^c has only digits 0 and 1 in base p.
    ``DirectSumCounter`` evaluates the same indicator inline, digit by digit,
    so this is its oracle."""
    pc = sys_.p**c
    return int((u // pc) % sys_.q == 1 and digits_zero_one(u % pc, sys_.p))


@pytest.mark.parametrize("method", ["cases", "halving", "direct", "general", "p2", "theorem2"])
def test_spot_values(sys23, method):
    counter = make_counter(sys23, method)
    assert counter.w(19) == 4
    assert counter.w(27) == 7
    assert counter.w(12) == 3
    assert counter.w(0) == 1
    assert counter.w(-3) == 0
    assert [counter.w(u) for u in (5, 11, 23)] == [1, 1, 1]


def test_spot_values_other_bases(sys35):
    for counter in all_counters(sys35):
        assert counter.w(7) == 0
        assert counter.w(15) == 1
        assert counter.w(31) == 2


def test_halving_requires_p2(sys35):
    with pytest.raises(InvalidSystemError):
        HalvingCounter(sys35)


def test_halving_recurrence_examples(sys23):
    counter = HalvingCounter(sys23)
    assert counter.w(13) == counter.w(4) + counter.w(5) == 3
    assert counter.w(26) == counter.w(13) == 3


def test_three_way_agreement_with_oracle():
    for p, q in ((2, 3), (2, 5)):
        sys_ = make_system(p, q)
        census = chain_census(1500, sys_)
        for engine in all_counters(sys_):
            assert list(engine.scan(1500)) == census.counts, (p, q, type(engine).__name__)


def test_three_way_agreement_medium():
    for p, q in ((2, 7), (2, 9)):
        first, *others = [engine.scan(100_000) for engine in all_counters(make_system(p, q))]
        assert len(others) == 2 and all(scan == first for scan in others), (p, q)


def test_two_way_agreement_general_bases():
    for p, q in ((3, 4), (3, 5), (4, 3)):
        first, *others = [engine.scan(30_000) for engine in all_counters(make_system(p, q))]
        assert len(others) == 1 and all(scan == first for scan in others), (p, q)


def test_w_equal_at_multiples_of_pq(sys23, sys35):
    for sys_ in (sys23, sys35):
        counter = make_counter(sys_, "cases")
        for u in range(1, 400):
            assert counter.w(sys_.pq * u) == counter.w(sys_.pq * u + 1)


def test_reduction_identity_deep_arguments():
    # W(2^a * q * (2u+1) - 1) = W(q*u + (q-1)/2), even for huge arguments
    rng = random.Random(1)
    for q in (3, 5, 7):
        counter = make_counter(make_system(2, q), "halving")
        for _ in range(40):
            a = rng.randrange(0, 21)
            u = rng.randrange(0, 1000)
            lhs = counter.w(2**a * q * (2 * u + 1) - 1)
            rhs = counter.w(q * u + (q - 1) // 2)
            assert lhs == rhs, (q, a, u)


def test_q3_symmetric_form(sys23):
    # W(3u+1) = W(u) + W(3*floor((u+1)/2) - 1)
    counter = make_counter(sys23, "halving")
    for u in range(0, 2000):
        assert counter.w(3 * u + 1) == counter.w(u) + counter.w(3 * ((u + 1) // 2) - 1)


def test_digit_indicator():
    assert all(digits_zero_one(n, 2) for n in range(0, 200))
    assert digits_zero_one(4, 3) and digits_zero_one(256, 3) and digits_zero_one(10, 3)
    assert not digits_zero_one(2, 3)
    assert {n for n in range(31) if digits_zero_one(2**n, 3)} == {0, 2, 8}


def test_digit_indicator_equals_the_digit_loop():
    # base 2 answers n >= 0 at once; the digit loop is the definition
    def by_digits(n, base):
        if n < 0:
            return False
        while n:
            if n % base > 1:
                return False
            n //= base
        return True

    for base in (2, 3, 5):
        assert all(digits_zero_one(n, base) == by_digits(n, base) for n in range(-3, 5001)), base


def test_indicator_examples(sys23):
    assert summand_indicator(0, 19, sys23) == 1
    assert summand_indicator(1, 19, sys23) == 0
    assert summand_indicator(2, 19, sys23) == 1
    # at powers of 4 the indicator alternates with the parity of c
    for a in (1, 2, 3, 4):
        u = 4**a
        for c in range(0, 2 * a - 1):
            assert summand_indicator(c, u, sys23) == (1 if c % 2 == 0 else 0)


def test_direct_sum_breakdown_u19(sys23):
    counter = DirectSumCounter(sys23)
    assert counter.w(19) == 1 + counter.w(6) + counter.w(1) == 4


def test_direct_sum_accelerations_are_neutral():
    # the plain direct sum, with every c such that p^c <= u div (q+1)
    for p, q in ((2, 3), (2, 5), (3, 4)):
        sys_ = make_system(p, q)
        plain = [1, 1]
        for u in range(2, 5001):
            total = int(digits_zero_one(u, p))
            if u % q == 0:
                total += plain[u // q]
            c = 0
            while p**c <= u // (q + 1):
                total += summand_indicator(c, u, sys_) * plain[u // (p**c * q)]
                c += 1
            plain.append(total)
        assert list(DirectSumCounter(sys_).scan(5000)) == plain


def _gap(p, q):
    """The indices that a surviving summand silences: the largest n with
    p^(n+1) <= pq - q + 1 when p < q, else 0."""
    n = 0
    while p < q and p ** (n + 2) <= p * q - q + 1:
        n += 1
    return n


def _expand_on_powers(counter, u):
    """``DirectSumCounter._expand`` as it was: p^c carried, u divided by it
    each step, and the ``_gap`` indices after a surviving summand skipped."""
    p, q = counter.sys.p, counter.sys.q
    const = 1 if digits_zero_one(u, p) else 0
    deps = []
    if u % q == 0:
        deps.append(u // q)
    pc, skip_until, c = 1, -1, 0
    bound = u // (q + 1)
    while pc <= bound:
        if c > skip_until and (u // pc) % q == 1:
            deps.append(u // (pc * q))
            skip_until = c + _gap(p, q)
        if (u // pc) % p > 1:
            break
        pc *= p
        c += 1
    return const, tuple(deps)


def test_direct_expand_on_a_running_quotient_equals_the_loop_on_powers():
    # the loop on powers skips the ``_gap`` indices that a surviving summand
    # silences, so the equal deps also show that the running quotient, which
    # skips none, adds no summand in them
    rng = random.Random(27)
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 2), (5, 3), (2, 9), (4, 7)):
        counter = DirectSumCounter(make_system(p, q))
        big = [rng.randrange(10 ** (d - 1), 10**d) for d in range(5, 31) for _ in range(40)]
        for u in [*range(3000), *big]:
            assert counter._expand(u) == _expand_on_powers(counter, u), (p, q, u)


def test_w_star(sys23):
    from chainpart.core import brute_force_enumerate

    counter = make_counter(sys23)
    assert counter.w_star(6) == 2
    assert counter.w_star(3) == 1
    assert counter.w_star(0) == 1
    for u in range(0, 200):
        no_unit = sum(1 for pt in brute_force_enumerate(u, sys23) if not pt.has_unit)
        assert counter.w_star(u) == no_unit


@pytest.mark.parametrize("method", ["cases", "halving", "direct"])
def test_scan_matches_pointwise(sys23, method):
    arr = make_counter(sys23, method).scan(600)
    fresh = make_counter(sys23, method)
    assert list(arr) == [fresh.w(u) for u in range(601)]


def test_count_splits_by_unit_presence(sys23, sys35):
    # W(u) = W*(u) + W*(u-1): members without a part 1 and members with one
    for sys_ in (sys23, sys35):
        counter = make_counter(sys_, "cases")
        for u in range(1, 600):
            assert counter.w(u) == counter.w_star(u) + counter.w_star(u - 1)


def test_scan_to_a_million_traces_under_10_mb(sys23):
    # 4 bytes per u and the fill's column integers; 64-bit lanes traced 15.9 MB here
    tracemalloc.start()
    try:
        counts = make_counter(sys23).scan(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[10**6] == make_counter(sys23).w(10**6)
    assert peak < 10 * 2**20, peak


def test_scan_to_a_million_traces_under_7_5_mb(sys23):
    # the 4 MB array and, per operand, only the slice in use; keeping every
    # slice of a doubling run traced 8.2 MB here
    tracemalloc.start()
    try:
        counts = make_counter(sys23).scan(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[10**6] == make_counter(sys23).w(10**6)
    assert peak < 7.5 * 2**20, peak


@pytest.mark.parametrize("pq", [(2, 100003), (100003, 2), (3, 100003)])
def test_dense_scans_past_a_large_base_are_sized_by_the_limit(pq):
    # every limit ends inside the first residue block mod pq, so the fills
    # code no residue past the limit and pad to no whole run of pq lanes
    sys_ = make_system(*pq)
    counter, table = make_counter(sys_), ShortestTable(sys_)
    for limit in range(41):
        us = range(limit + 1)
        assert list(counter.scan(limit)) == [count_grid(u, sys_).rows[0][0] for u in us], limit
        assert table.scan(limit) == [sigma_grid(u, sys_).rows[0][0] for u in us], limit
    tracemalloc.start()
    try:
        counter.scan(40)
        table.scan(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4), (5, 7), (3, 2)])
def test_sparse_expands_each_new_entry_once(pq):
    # each stack entry keeps its node's expansion, so a node whose missing
    # arguments were filled is not expanded again
    sys_ = make_system(*pq)
    rng = random.Random(sum(pq))
    engines = [DirectSumCounter] + ([HalvingCounter] if sys_.p == 2 else [])
    for digits in (20, 24, 27, 30):
        u = rng.randrange(10 ** (digits - 1), 10**digits)
        for engine in engines:
            counter, calls = engine(sys_), []
            real = counter._expand
            counter._expand = lambda v: calls.append(v) or real(v)
            before = len(counter.table)
            assert counter.w(u) == count_grid(u, sys_).rows[0][0], (pq, u, engine)
            assert len(calls) == len(set(calls)) == len(counter.table) - before, (pq, u, engine)


def test_sparse_expansions_at_27_digits(sys23):
    # 1,312 expansions for 750 entries when a node was expanded again
    counter, calls = DirectSumCounter(sys23), []
    real = counter._expand
    counter._expand = lambda v: calls.append(v) or real(v)
    counter.w(495997235245523141262311424)
    assert len(calls) == len(counter.table) - 2 == 748


def test_counting_refusals(sys23):
    with pytest.raises(ValueError, match="base must be >= 2"):
        digits_zero_one(5, 1)
    with pytest.raises(ValueError, match="unknown counting method"):
        make_counter(sys23, "bogus")
    assert [engine.w_star(-1) for engine in all_counters(sys23)] == [0, 0, 0]
