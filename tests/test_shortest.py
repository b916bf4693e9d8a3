"""Least part counts, witnesses, statistics, and the powering harness."""

import math
import random
import tracemalloc

import pytest

from chainpart.core import (
    ChainBreakError,
    DuplicatePartError,
    Partition,
    UnreachableSumError,
    chain_census,
    make_system,
    validate,
    value,
)
from chainpart.counting import make_counter
from chainpart.decomposition import sigma_grid
from chainpart.enumeration import sample_uniform
from chainpart.shortest import ChainCost, ShortestResult, ShortestTable, chain_cost, chain_pow


def test_sigma_19(sys23):
    res = ShortestTable(sys23).witness(19)
    assert res.sigma == 2
    assert res.witness == validate([18, 1], sys23)


def test_sigma_geometric_families(sys23):
    table = ShortestTable(sys23)
    for a in range(0, 21):
        assert table.sigma(3 * 2**a - 1) == a + 1
        assert table.sigma(3 * 2**a) == 1


def test_sigma_matches_oracle(sys23, sys35):
    for sys_ in (sys23, sys35):
        census = chain_census(500, sys_)
        table = ShortestTable(sys_)
        arr = table.scan(500)
        for u in range(1, 501):
            if census.min_len[u] is None:
                assert arr[u] == math.inf
            else:
                assert arr[u] == census.min_len[u]


def test_sigma_case_identities(sys23):
    table = ShortestTable(sys23)
    arr = table.scan(60_000)
    for u in range(1, 10_000):
        assert arr[6 * u] == min(arr[3 * u], arr[2 * u])
        assert arr[6 * u + 1] == 1 + arr[6 * u]


def test_witness_is_valid_and_shortest(sys23):
    table = ShortestTable(sys23)
    census = chain_census(300, sys23)
    for u in range(1, 301):
        res = table.witness(u)
        assert value(res.witness, sys23) == u
        assert len(res.witness) == res.sigma == census.min_len[u]


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 7), (3, 2)])
def test_witness_equals_the_argmin_lift(p, q, descend_and_lift, general_table):
    """Each witness is the partition that the old argmin descent of the
    general table lifted back up from the leaf, ties going to the first
    branch of the row.  That descent kept the p-scaled branch below a
    filtered one, where the descent of the cells drops it."""
    sys_ = make_system(p, q)
    table = ShortestTable(sys_)
    decomposition = general_table(sys_)
    for u in range(0, 3000):
        if table.sigma_or_inf(u) == math.inf:
            continue
        rows = sigma_grid(u, sys_, 1).rows if u >= 2 else [[table.sigma_or_inf(u)]]
        a = b = 0

        def score(branch):
            ca, cb = branch.below(a, b)
            return branch.labels.count("1") + rows[cb][ca]

        def argmin(v, row):
            nonlocal a, b
            pick = min(row, key=score)
            a, b = pick.below(a, b)
            return pick

        assert table.witness(u).witness == descend_and_lift(decomposition, u, argmin), u


def test_sigma_unreachable(sys35):
    with pytest.raises(UnreachableSumError):
        ShortestTable(sys35).sigma(7)
    # below 1 the fold has no cells nor tops: sigma(0) = 0 and sigma(-1) = inf
    for every in (0, 1, None):
        assert sigma_grid(0, sys35, every) == ([[0]], [], range(0))
        assert sigma_grid(-1, sys35, every) == ([[math.inf]], [], range(0))
    table = ShortestTable(sys35)
    assert table.witness(0) == ShortestResult(0, 0, Partition())
    with pytest.raises(UnreachableSumError):
        table.witness(-1)


def test_scan_shares_one_inf(sys35):
    # an unreachable sum reached through a label 1 once stored a fresh inf float
    arr = ShortestTable(sys35).scan(10**5)
    unreachable = [u for u, w in enumerate(make_counter(sys35).scan(10**5)) if not w]
    assert len(unreachable) > 50_000
    assert all(arr[u] is math.inf for u in unreachable)
    assert all(x is math.inf for x in arr if x == math.inf)


def test_stats_small_exact(sys23):
    stats = ShortestTable(sys23).stats(10)
    # sigma on 2..10: 1 1 1 2 1 2 1 1 2
    assert stats.histogram == {1: 6, 2: 3}
    assert stats.mean_ratio > 0


def test_stats_skip_unreachable_sums(sys35):
    stats = ShortestTable(sys35).stats(20)
    census = chain_census(20, sys35)
    reachable = sum(1 for u in range(2, 21) if census.counts[u] > 0)
    assert sum(stats.histogram.values()) == reachable


def test_stats_to_a_million_trace_under_4_mb(sys23):
    # one byte per sum; a list of sigma values once traced 16 MB here
    tracemalloc.start()
    try:
        stats = ShortestTable(sys23).stats(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(stats.histogram.values()) == 10**6 - 1
    assert peak < 4 * 2**20, peak


def test_histogram_to_a_million_traces_under_4_mb(sys23):
    # the csv path of sigma-stats counts the same bytes and makes no float per sum
    tracemalloc.start()
    try:
        histogram = ShortestTable(sys23).histogram(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(histogram.values()) == 10**6 - 1
    assert peak < 4 * 2**20, peak


@pytest.fixture(scope="module")
def sample_at_10_600(sys23):
    """Four draws at 10^600 and the tracemalloc peak of drawing them: one
    traced run, which tracing slows about tenfold, for both bounds below."""
    tracemalloc.start()
    try:
        members = list(sample_uniform(10**600, sys23, 4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 4 and all(value(pt, sys23) == 10**600 for pt in members)
    return peak


def test_sample_at_10_600_traces_under_16_mb(sample_at_10_600):
    # the sampler keeps its checkpoint rows, placed by their bytes, and the
    # binomial checkpoints of one segment; keeping every row of W once
    # traced 47 MB here
    assert sample_at_10_600 < 16 * 2**20, sample_at_10_600


def test_sample_at_10_600_traces_under_3_5_mb(sample_at_10_600):
    # 3.06 MiB with checkpoints placed by row bytes and binomial refolds;
    # ceil(sqrt(rows)) checkpoints, each segment refolded whole, traced
    # 6.33 MiB here
    assert sample_at_10_600 < 3.5 * 2**20, sample_at_10_600


@pytest.fixture(scope="module")
def witness_at_10_600(sys23):
    """The tracemalloc peak of the witness at 10^600: one traced run for both
    bounds below."""
    tracemalloc.start()
    try:
        res = ShortestTable(sys23).witness(10**600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value(res.witness, sys23) == 10**600 and len(res.witness) == res.sigma
    return peak


def test_witness_at_10_600_traces_under_4_mb(witness_at_10_600):
    # two live sigma rows and the grid's codes; keeping every sigma row once
    # traced 12.5 MB here
    assert witness_at_10_600 < 4 * 2**20, witness_at_10_600


def test_witness_at_10_600_traces_under_2_mb(witness_at_10_600):
    # 1.33 MiB with the argmin kept in the pruned codes; one pick byte per
    # cell beside the codes traced 2.45 MiB here
    assert witness_at_10_600 < 2 * 2**20, witness_at_10_600


def test_chain_cost(sys23):
    assert chain_cost(validate([18, 1], sys23)) == ChainCost(1, 2, 1)
    assert chain_cost(validate([], sys23)) == ChainCost(0, 0, 0)


def test_chain_pow_reference(sys23):
    assert chain_pow(5, 19, 101, sys23) == pow(5, 19, 101)
    assert chain_pow(7, 1, 11, sys23) == 7
    assert chain_pow(7, 0, 11, sys23) == 1
    rng = random.Random(8)
    table = ShortestTable(sys23)
    for _ in range(400):
        g = rng.randrange(0, 10**9)
        u = rng.randrange(1, 10**6)
        m = rng.randrange(2, 10**9)
        wit = table.witness(u).witness
        assert chain_pow(g, u, m, sys23, wit) == pow(g, u, m)


def test_chain_pow_validations(sys23):
    with pytest.raises(ValueError):
        chain_pow(3, 10, 1, sys23)
    with pytest.raises(ValueError):
        chain_pow(3, 10, 7, sys23, witness=validate([8, 1], sys23))


def test_chain_pow_rejects_a_witness_out_of_chain_order(sys23):
    # each sums to the exponent, but the Horner walk needs a chain in
    # descending order: the two orders of 3 + 2 once gave 5^8 and 5^9 for 5^5
    m = 10**9 + 7
    for parts in (((0, 1), (1, 0)), ((1, 0), (0, 1)), ((0, 0), (2, 0))):
        with pytest.raises(ChainBreakError):
            chain_pow(5, 5, m, sys23, Partition(parts))
    with pytest.raises(DuplicatePartError):
        chain_pow(5, 4, m, sys23, Partition(((1, 0), (1, 0))))
    assert chain_pow(5, 5, m, sys23, Partition(((2, 0), (0, 0)))) == pow(5, 5, m)


def test_shortest_refusals(sys23):
    with pytest.raises(ValueError, match="limit must be >= 0"):
        ShortestTable(sys23).scan(-1)
    with pytest.raises(ValueError, match="exponent must be >= 0"):
        chain_pow(5, -1, 7, sys23)
