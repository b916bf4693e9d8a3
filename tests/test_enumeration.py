"""Recursive enumeration engines and the exact uniform sampler."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from chainpart.core import (
    BudgetError,
    Partition,
    UnreachableSumError,
    binary_partition,
    brute_force_enumerate,
    make_system,
    part_value,
    validate,
    value,
)
from chainpart import enumeration
from chainpart.counting import make_counter
from chainpart.decomposition import CELL_BRANCHES, count_grid
from chainpart.enumeration import (
    ResidueEnumerator,
    SplitEnumerator,
    branch_weight,
    sample_uniform,
    unrank,
    walk,
)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 5), (3, 2), (5, 3), (2, 9)])
def test_engines_equal_oracle(p, q):
    sys_ = make_system(p, q)
    split = SplitEnumerator(sys_)
    residue = ResidueEnumerator(sys_)
    for u in range(0, 250):
        expected = brute_force_enumerate(u, sys_)
        assert split.omega(u) == expected
        assert residue.omega(u) == expected


def test_split_enumerator_deep_single_member():
    # W(11^1500) = 1 on (11,13); the depth is 1,500 levels, past the recursion limit
    members = SplitEnumerator(make_system(11, 13)).omega(11 ** 1500)
    assert members == frozenset((Partition(((1500, 0),)),))


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 5), (3, 2), (4, 3), (3, 4)])
def test_unrank_is_a_bijection_onto_the_oracle(p, q):
    sys_ = make_system(p, q)
    for u in range(0, 600):
        grid = count_grid(u, sys_, None)
        members = unrank(grid, range(grid.rows[0][0]))
        assert len(set(members)) == len(members), u
        assert set(members) == brute_force_enumerate(u, sys_), u


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (3, 4), (5, 7), (2, 5), (4, 3)])
def test_checkpointed_unrank_equals_the_every_row_unrank(p, q):
    # the byte-placed checkpoints and their binomial refolds, and a spacing
    # of 2, split the rows into segments whose ends every descent crosses;
    # every row is k = 1
    sys_ = make_system(p, q)
    counter = make_counter(sys_)
    for u in range(0, 2000):
        ranks = range(counter.w(u))
        expected = unrank(count_grid(u, sys_, 1), ranks)
        assert unrank(count_grid(u, sys_, None), ranks) == expected, u
        assert unrank(count_grid(u, sys_, 2), ranks) == expected, u


def test_checkpointed_unrank_at_10_600(sys23):
    u = 10**600
    checkpoints = count_grid(u, sys23, None)
    every_row = count_grid(u, sys23, 1)
    assert len(checkpoints.cells) == 897 and checkpoints.tops == (0, 62, 139, 253, 435)
    assert len(checkpoints.rows) == 5
    rng = random.Random(600)
    ranks = [rng.randrange(every_row.rows[0][0]) for _ in range(200)]
    members = unrank(checkpoints, ranks)
    assert members == unrank(every_row, ranks)
    assert all(value(pt, sys23) == u for pt in members)


def test_unrank_takes_repeated_and_unsorted_ranks(sys35):
    u = _chain_sum_of_300_digits(sys35, 9)
    counter = make_counter(sys35)
    w = counter.w(u)
    assert w == 61_440
    ranks = [w - 1, 3, 0, 3, w - 1, 7, 0, w // 2, 3]
    grid = count_grid(u, sys35, None)
    members = unrank(grid, ranks)
    assert members == [unrank(count_grid(u, sys35, 1), [rank])[0] for rank in ranks]
    assert members[1] == members[3] == members[8] and members[0] == members[4]
    assert len(set(members)) == len(set(ranks))
    assert unrank(grid, []) == []


def _chain_sum_of_300_digits(sys_, seed):
    """The sum of a seeded random chain whose largest part has 300 digits."""
    rng = random.Random(seed)
    a = int(rng.random() * 300 * math.log(10) / math.log(sys_.p))
    b = max(0, int((300 * math.log(10) - a * math.log(sys_.p)) / math.log(sys_.q)))
    total = 0
    while a >= 0 and b >= 0:
        total += sys_.p**a * sys_.q**b
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        a, b = a - (da or (0 if db else 1)), b - db
    return total


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5)])
def test_unrank_equals_the_lifted_descent_at_10_300(p, q, descend_and_lift, general_table):
    """``unrank`` at 200 seeded ranks of a U near 10^300 is the partition that
    the old rank-guided descent of the general table lifted back up from the
    leaf.  U is 10^300 on (2,3); on (3,5), where 10^300 has no partition, it
    is a chain sum of 300 digits with 61,440 members."""
    sys_ = make_system(p, q)
    u = 10**300 if p == 2 else _chain_sum_of_300_digits(sys_, 9)
    rows = count_grid(u, sys_, 1).rows
    assert rows[0][0] > 60_000
    decomposition = general_table(sys_)
    rng = random.Random(300)
    ranks, lifted = [], []
    for _ in range(200):
        target = rank0 = rng.randrange(rows[0][0])
        a = b = 0
        filtered = False

        def choose(v, row):
            nonlocal target, a, b, filtered
            if filtered:
                row = row[1:]
            pick = row[0]
            if len(row) > 1:
                weight = pick.weight(rows, a, b)
                if target >= weight:
                    target -= weight
                    pick = row[1]
            a, b = pick.below(a, b)
            filtered = pick.filtered
            return pick

        ranks.append(rank0)
        lifted.append(descend_and_lift(decomposition, u, choose))
    assert unrank(count_grid(u, sys_, None), ranks) == lifted


def test_unrank_refuses_a_rank_outside_the_count(sys23):
    grid = count_grid(60, sys23, None)
    for rank in (-1, 5):
        with pytest.raises(ValueError, match=r"outside \[0, 5\)"):
            unrank(grid, [0, rank])


def rank(u, table, rows, pt):
    """The rank of ``pt`` in Omega(u): the inverse of ``unrank``.

    One descent of the general ``table``: at each node it takes the first
    branch of the row that can hold what is left of ``pt`` (a label 1 iff the
    smallest part left sits at the current cell, and every part after it
    at or past the cell below) and adds up the weights of the branches
    before it.
    """
    left = list(pt.parts)  # largest first, so the smallest part is left[-1]
    x, a, b, filtered, total = u, 0, 0, False, 0
    while x > 1:
        v, r = divmod(x, table.modulus)
        row = table.rows[r][1:] if filtered else table.rows[r]
        for branch in row:
            one = branch.labels[0] == "1"
            ca, cb = branch.below(a, b)
            rest = left[:-1] if one else left
            if one == (left[-1] == (a, b)) and (not rest or (rest[-1][0] >= ca and rest[-1][1] >= cb)):
                break
            total += branch.weight(rows, a, b)
        else:
            raise AssertionError(f"no branch at {x} holds {pt}")
        left = rest
        a, b, filtered = ca, cb, branch.filtered
        x = branch.mul * v + branch.off
    assert left == ([(a, b)] if x else [])
    return total


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (5, 7), (3, 5), (3, 2)])
def test_walk_lists_the_members_in_rank_order(p, q, general_table):
    sys_ = make_system(p, q)
    table = general_table(sys_)
    for u in range(0, 2000):
        grid = count_grid(u, sys_, 1)
        members = list(walk(grid))
        assert len(members) == grid.rows[0][0], u
        assert members == unrank(grid, range(len(members))), u
        for i, pt in enumerate(members):
            assert rank(u, table, grid.rows, pt) == i, (u, i)


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (3, 2)])
def test_branch_weights_add_up_to_the_node_weight(p, q, general_table):
    # at every node the weights of the cell's branches split the node's
    # weight, which below a filtered branch is W(pv) less the dropped
    # p-scaled W(v); the cell's branches are the general table's row
    sys_ = make_system(p, q)
    table = general_table(sys_)
    for u in range(2, 600):
        rows, cells, _ = count_grid(u, sys_, 1)
        stack = [(u, 0, 0, False)]
        while stack:
            x, a, b, filtered = stack.pop()
            if x < 2:
                continue
            v, r = divmod(x, table.modulus)
            row = table.rows[r][1:] if filtered else table.rows[r]
            branches = CELL_BRANCHES[filtered][cells[b][a]]
            assert [br.below(a, b) for br in row] == [(a + br.da, b + br.db) for br in branches]
            weights = [branch_weight(rows, a, b, branch) for branch in branches]
            assert weights == [br.weight(rows, a, b) for br in row], (u, x)
            assert sum(weights) == rows[b][a] - (rows[b][a + 1] if filtered else 0), (u, x)
            stack.extend((branch.mul * v + branch.off, *branch.below(a, b), branch.filtered)
                         for branch, weight in zip(row, weights) if weight)


def test_walk_at_the_ground_values(sys23):
    assert list(walk(count_grid(0, sys23, 1))) == [Partition()]
    assert list(walk(count_grid(1, sys23, 1))) == [Partition(((0, 0),))]
    assert list(walk(count_grid(7, make_system(3, 5), 1))) == []
    # below 1 the fold has no cells nor tops: W(0) = 1 and W(-1) = 0, at every spacing
    for every in (0, 1, None):
        assert count_grid(0, sys23, every) == ([[1]], [], range(0))
        assert count_grid(-1, sys23, every) == ([[0]], [], range(0))
    assert list(walk(count_grid(-1, sys23, 1))) == []
    assert unrank(count_grid(0, sys23, None), [0]) == [Partition()]
    assert unrank(count_grid(-1, sys23, None), []) == []
    with pytest.raises(ValueError, match="outside"):
        unrank(count_grid(-1, sys23, None), [0])


def test_budget_is_checked_before_any_member_is_built(sys23, monkeypatch):
    def no_walk(*args):
        raise AssertionError("a member was built past the budget")

    monkeypatch.setattr(enumeration, "walk", no_walk)
    with pytest.raises(BudgetError, match="past the budget of 4"):
        ResidueEnumerator(sys23, budget=4).omega(60)
    with pytest.raises(BudgetError, match="past the budget of 4"):
        ResidueEnumerator(sys23, budget=4).by_value(60)


def test_over_budget_omega_at_10_600_traces_under_4_mb(sys23):
    # W(10^600 + 7) is read from a sweep of two rows before any row is kept:
    # the every-row sweep alone traced 48.2 MiB, the two-row sweep 1.4 MiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="past the budget of 2000000$"):
            ResidueEnumerator(sys23).omega(10**600 + 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    # past the budget but W(u) within it, both sweeps run and the walk is the same
    assert ResidueEnumerator(sys23, budget=4).by_value(19) == ResidueEnumerator(sys23).by_value(19)


def test_ground_values(sys23):
    assert ResidueEnumerator(sys23).omega_set(0).members == frozenset((Partition(),))
    assert ResidueEnumerator(sys23).omega_set(1).members == frozenset((Partition(((0, 0),)),))


def test_unreachable_sum_is_empty(sys35):
    assert ResidueEnumerator(sys35).omega_set(7).members == frozenset()


def test_binary_partition_always_present(sys23, sys25):
    for sys_ in (sys23, sys25):
        en = ResidueEnumerator(sys_)
        for u in range(1, 400):
            assert binary_partition(u) in en.omega(u)


def test_members_sum_correctly(sys23):
    en = ResidueEnumerator(sys23)
    counter = make_counter(sys23)
    for u in range(0, 300):
        members = en.omega(u)
        assert all(value(pt, sys23) == u for pt in members)
        assert len({pt.parts for pt in members}) == len(members)
        assert len(members) == counter.w(u)


def test_budget_guard(sys23):
    with pytest.raises(BudgetError):
        SplitEnumerator(sys23, budget=10).omega(60)
    # the budget caps |Omega(U)|, checked against W(U) before any member is built
    with pytest.raises(BudgetError):
        ResidueEnumerator(sys23, budget=4).omega(60)
    assert len(ResidueEnumerator(sys23, budget=5).omega(60)) == 5


def _by_value_tuples(members, sys_):
    """``members`` sorted by decreasing tuples of int part values, largest part first."""
    return sorted(members, key=lambda pt: tuple(part_value(pair, sys_) for pair in pt),
                  reverse=True)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (5, 7), (3, 2), (2, 11)])
def test_by_value_is_the_order_of_value_tuples(p, q):
    sys_ = make_system(p, q)
    enumerator = ResidueEnumerator(sys_)
    for u in range(3001):
        om = enumerator.omega_set(u)
        expected = _by_value_tuples(om.members, sys_)
        assert enumerator.by_value(u) == expected == om.sorted_by_value(sys_), u


def test_by_value_at_9555147_is_the_order_of_value_tuples(sys23):
    om = ResidueEnumerator(sys23).omega_set(9555147)
    expected = _by_value_tuples(om.members, sys23)
    assert len(expected) == 5413
    assert ResidueEnumerator(sys23).by_value(9555147) == expected == om.sorted_by_value(sys23)


def test_sorted_by_value_order(sys23):
    om = ResidueEnumerator(sys23).omega_set(19)
    ordered = om.sorted_by_value(sys23)
    firsts = [pt.parts[0] for pt in ordered]
    assert firsts == [(1, 2), (4, 0), (2, 1), (2, 1)]


def test_omega_set_keeps_its_members_and_order(sys23):
    om = ResidueEnumerator(sys23).omega_set(27)
    assert (om.u, len(om), set(om)) == (27, 7, set(om.members))
    assert om.members == brute_force_enumerate(27, sys23)
    assert [value(pt, sys23) for pt in om.sorted_by_value(sys23)] == [27] * 7


def test_sorted_members_keep_the_order_of_their_pair_tuples(sys23):
    enumerator = ResidueEnumerator(sys23)
    for u in range(3001):
        members = enumerator.omega(u)
        assert sorted(members) == sorted(members, key=tuple), u


def test_sampler_single_member(sys23):
    [pt] = sample_uniform(5, sys23, 7)
    assert pt.parts == ((2, 0), (0, 0))
    with pytest.raises(UnreachableSumError):
        sample_uniform(7, make_system(3, 5), 0)
    # no draw, no sweep: an empty Omega(u) is no error
    assert list(sample_uniform(7, make_system(3, 5), 0, 0)) == []
    assert list(sample_uniform(0, sys23, 0, 2)) == [Partition(), Partition()]
    with pytest.raises(UnreachableSumError):
        sample_uniform(-1, sys23, 0)
    with pytest.raises(ValueError, match="n must be >= 0"):
        sample_uniform(5, sys23, 0, -1)


def test_sampler_two_members_split(sys23):
    tally = Counter(pt.parts for pt in sample_uniform(3, sys23, random.Random(123), 1000))
    assert set(tally) == {((0, 1),), ((1, 0), (0, 0))}
    assert min(tally.values()) > 400


def test_sampler_support_and_balance_27(sys23):
    members = ResidueEnumerator(sys23).omega_set(27).members
    tally = Counter(sample_uniform(27, sys23, random.Random(9), 3500))
    assert set(tally) == members
    assert min(tally.values()) > 350


def test_sampler_general_path_with_rejection(sys35):
    # u = 30 = (3*5)*2 exercises the filtered branch of the decomposition
    rng = random.Random(4)
    counter = make_counter(sys35)
    members = ResidueEnumerator(sys35).omega_set(30).members
    assert len(members) == 2
    tally = Counter(sample_uniform(30, sys35, rng, 800))
    assert set(tally) == members
    assert min(tally.values()) > 300
    residue = ResidueEnumerator(sys35)
    for u in range(1, 200):
        if counter.w(u):
            [pt] = sample_uniform(u, sys35, rng)
            assert pt in residue.omega_set(u).members


def test_sampler_deterministic_under_seed(sys23):
    a = [pt.parts for pt in sample_uniform(1000, sys23, 42, 5)]
    b = [pt.parts for pt in sample_uniform(1000, sys23, 42, 5)]
    assert a == b


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5)])
def test_sampler_blocks_draw_the_ranks_of_single_draws(p, q, monkeypatch):
    # no parts to spare, so a block is one draw per segment; more draws than
    # segments, so the ranks come in several blocks; the members are those
    # of one draw at a time from the same PRNG, in order
    monkeypatch.setattr(enumeration, "_BLOCK_PARTS", 0)
    sys_ = make_system(p, q)
    u = 10**100 if p == 2 else _chain_sum_of_300_digits(sys_, 9)
    counter = make_counter(sys_)
    segments = len(count_grid(u, sys_, None).rows)
    n = 3 * segments + 1
    batched = list(sample_uniform(u, sys_, 5, n))
    rng = random.Random(5)
    assert batched == [pt for _ in range(n) for pt in sample_uniform(u, sys_, rng)]
    rng = random.Random(5)
    ranks = [rng.randrange(counter.w(u)) for _ in range(n)]
    assert batched == unrank(count_grid(u, sys_, 1), ranks)


def test_sampler_blocks_hold_a_bounded_number_of_parts(sys23, monkeypatch):
    # a member of 10^300 has at most 997 parts, so a block of 2^18 parts is
    # 262 draws: 300 draws come in two blocks, not fifteen of one per segment
    u = 10**300
    blocks, real = [], enumeration.unrank
    monkeypatch.setattr(enumeration, "unrank",
                        lambda grid, ranks: blocks.append(len(ranks)) or real(grid, ranks))
    members = list(sample_uniform(u, sys23, 5, 300))
    assert blocks == [262, 38] and len(count_grid(u, sys23, None).rows) == 5
    rng = random.Random(5)
    w = make_counter(sys23).w(u)
    assert members == real(count_grid(u, sys23, 1), [rng.randrange(w) for _ in range(300)])


def test_sampler_uniform_on_larger_support(sys23):
    # 19 outcomes at u = 171; chi-square against the 0.99 quantile, 18 dof
    members = ResidueEnumerator(sys23).omega_set(171).members
    assert len(members) == 19
    draws = 9500
    tally = Counter(sample_uniform(171, sys23, random.Random(6), draws))
    assert set(tally) == members
    expected = draws / 19
    stat = sum((tally[pt] - expected) ** 2 / expected for pt in members)
    assert stat < 34.805, stat


def test_sampler_rejection_branch_is_exactly_uniform(sys35):
    # u = 2280 = 15*152: three members, two of them behind the filtered
    # branch whose weight is W(3v) - W(v); frequencies must still be flat
    members = ResidueEnumerator(sys35).omega_set(2280).members
    assert len(members) == 3
    tally = Counter(sample_uniform(2280, sys35, random.Random(17), 3000))
    assert set(tally) == members
    assert all(880 <= n <= 1120 for n in tally.values()), dict(tally)


def test_sampler_deep_binary_descent(sys23):
    # about 2,400 levels of the binary table below the root
    u = 2**1200 + 12345
    [pt] = sample_uniform(u, sys23, 1)
    assert value(validate([part_value(pair, sys23) for pair in pt], sys23), sys23) == u


def test_sampler_deep_filtered_descent(sys35):
    # W(u) = 2; the root sits on the filtered branch, 1,500 levels above the leaf
    u = 3**1500 * 25 + 3**300 * 5 + 1
    counter = make_counter(sys35)
    assert counter.w(u) == 2
    for seed in range(4):
        [pt] = sample_uniform(u, sys35, seed)
        assert value(validate([part_value(pair, sys35) for pair in pt], sys35), sys35) == u


class CountingRandom(random.Random):
    """A seeded PRNG that counts ``randrange`` calls and fails past ``cap``."""

    def __init__(self, seed: int, cap: int) -> None:
        super().__init__(seed)
        self.cap = cap
        self.calls = 0

    def randrange(self, *args, **kwargs):
        self.calls += 1
        assert self.calls <= self.cap, "the draw passed its randrange cap"
        return super().randrange(*args, **kwargs)


def test_sampler_makes_at_most_one_draw_per_level():
    # (3,2) at this U has nested filtered nodes; a sampler that rejects and
    # redraws their subtrees makes over 100,000 randrange calls here
    sys32 = make_system(3, 2)
    u = 224947739702172812439
    rng = CountingRandom(0, cap=u.bit_length())
    [pt] = sample_uniform(u, sys32, rng)
    assert value(validate([part_value(pair, sys32) for pair in pt], sys32), sys32) == u


class Odometer(random.Random):
    """Replays every sequence of ``randrange`` outcomes, one per draw.

    ``digits`` holds [outcome, n] for the calls of the current draw;
    ``advance`` moves to the next sequence and returns False after the last.
    A draw that makes more than ``cap`` calls fails.
    """

    def __init__(self, cap: int) -> None:
        super().__init__(0)
        self.cap = cap
        self.digits: list[list[int]] = []
        self.pos = 0

    def randrange(self, n):
        assert self.pos < self.cap, "the draw passed its randrange cap"
        if self.pos == len(self.digits):
            self.digits.append([0, n])
        self.pos += 1
        return self.digits[self.pos - 1][0]

    def probability(self) -> Fraction:
        out = Fraction(1)
        for _, n in self.digits[: self.pos]:
            out /= n
        return out

    def advance(self) -> bool:
        del self.digits[self.pos :]
        self.pos = 0
        while self.digits:
            self.digits[-1][0] += 1
            if self.digits[-1][0] < self.digits[-1][1]:
                return True
            self.digits.pop()
        return False


@pytest.mark.parametrize(
    "p,q,limit",
    [(3, 2, 160), (5, 2, 600), (4, 3, 600), (3, 5, 600), (2, 3, 600), (2, 5, 600)],
)
def test_sampler_law_is_exactly_uniform(p, q, limit):
    # sums Prod 1/n over every outcome sequence of the draw's randrange calls
    sys_ = make_system(p, q)
    counter = make_counter(sys_)
    enumerator = ResidueEnumerator(sys_)
    for u in range(1, limit):
        if not counter.w(u):
            continue
        rng = Odometer(cap=u.bit_length())
        law: dict[Partition, Fraction] = {}
        while True:
            [pt] = sample_uniform(u, sys_, rng)
            law[pt] = law.get(pt, 0) + rng.probability()
            if not rng.advance():
                break
        assert set(law) == enumerator.omega(u), u
        assert set(law.values()) == {Fraction(1, counter.w(u))}, u
