"""Base systems, the partition type, the elementary maps, and the oracle."""

import copy
import pickle
import random

import pytest

from chainpart.core import (
    BudgetError,
    ChainBreakError,
    DuplicatePartError,
    InvalidSystemError,
    NonSmoothPartError,
    Partition,
    PartitionError,
    append_unit,
    brute_force_enumerate,
    chain_census,
    factor_value,
    fill_memo,
    from_json,
    iter_chains,
    make_system,
    map_p,
    map_q,
    to_json,
    validate,
    value,
)


def test_make_system_inverses(sys23, sys35):
    assert (sys23.k0, sys23.l0) == (2, 1)
    assert (sys35.k0, sys35.l0) == (2, 2)
    # (k0, p - l0) solves k*p - l*q = 1
    assert sys23.k0 * 2 - (2 - sys23.l0) * 3 == 1
    assert sys35.k0 * 3 - (3 - sys35.l0) * 5 == 1


@pytest.mark.parametrize("p,q", [(2, 4), (6, 9), (1, 3), (2, 2), (0, 5), (2.0, 3)])
def test_make_system_rejections(p, q):
    with pytest.raises(InvalidSystemError):
        make_system(p, q)


def test_value_examples(sys23):
    pt = Partition(((1, 2), (1, 1), (1, 0), (0, 0)))
    assert value(pt, sys23) == 27
    assert value(Partition(), sys23) == 0
    assert value(Partition(((4, 0), (1, 0), (0, 0))), sys23) == 19


def test_validate_accepts_chain(sys23):
    pt = validate([18, 6, 2, 1], sys23)
    assert pt.parts == ((1, 2), (1, 1), (1, 0), (0, 0))
    assert validate([], sys23) == Partition()


def test_validate_rejections(sys23):
    with pytest.raises(ChainBreakError):
        validate([6, 4], sys23)
    with pytest.raises(ChainBreakError):
        validate([9, 6, 3], sys23)
    with pytest.raises(NonSmoothPartError):
        validate([10, 5], sys23)
    with pytest.raises(DuplicatePartError):
        validate([4, 4, 2], sys23)


def test_from_pairs_sorts_and_checks():
    pt = Partition.from_pairs([(0, 0), (1, 2), (1, 1)])
    assert pt.parts == ((1, 2), (1, 1), (0, 0))
    with pytest.raises(ChainBreakError):
        Partition.from_pairs([(2, 0), (0, 1)])
    with pytest.raises(DuplicatePartError):
        Partition.from_pairs([(1, 1), (1, 1)])
    with pytest.raises(PartitionError):
        Partition.from_pairs([(-1, 0)])


def test_append_unit_and_iter_chains_refusals(sys23):
    with pytest.raises(DuplicatePartError):
        append_unit(Partition(((1, 0), (0, 0))))
    with pytest.raises(ValueError, match="limit must be >= 0"):
        list(iter_chains(-1, sys23))


def test_partition_is_the_tuple_of_its_pairs():
    pairs = ((1, 2), (1, 1), (0, 0))
    pt = Partition(pairs)
    assert (len(pt), list(pt), bool(pt), pt.parts) == (3, list(pairs), True, pairs)
    assert pt.parts is pt and pt == pairs and hash(pt) == hash(pairs)
    assert (pt.has_unit, pt.largest, pt.smallest) == (True, (1, 2), (0, 0))
    assert not Partition(((1, 0),)).has_unit
    empty = Partition()
    assert (len(empty), list(empty), bool(empty), empty.parts, empty.has_unit) == (
        0, [], False, (), False)
    with pytest.raises(AttributeError):
        pt.extra = 1  # no instance dict


def test_partition_survives_pickle_and_copy():
    pt = Partition(((3, 1), (1, 0), (0, 0)))
    for clone in [pickle.loads(pickle.dumps(pt, protocol)) for protocol in range(6)] + [
            copy.copy(pt), copy.deepcopy(pt)]:
        assert type(clone) is Partition and clone == pt and clone.largest == (3, 1)


def test_scaling_maps(sys23):
    pt = validate([2, 1], sys23)
    assert value(map_q(pt), sys23) == 9
    assert map_q(pt).parts == ((1, 1), (0, 1))
    assert map_p(Partition()) == Partition()
    assert [value(map_p(validate([9, 3], sys23)), sys23)] == [24]
    assert map_p(validate([9, 3], sys23)).parts == ((1, 2), (1, 1))


def test_brute_force_spot_values(sys23, sys35):
    om19 = brute_force_enumerate(19, sys23)
    assert {tuple(sorted(value(Partition((pair,)), sys23) for pair in pt)) for pt in om19} == {
        (1, 18),
        (1, 2, 16),
        (1, 6, 12),
        (1, 2, 4, 12),
    }
    assert brute_force_enumerate(0, sys23) == frozenset((Partition(),))
    assert len(brute_force_enumerate(27, sys23)) == 7
    assert brute_force_enumerate(7, sys35) == frozenset()


def test_brute_force_ceiling_guard(sys23):
    with pytest.raises(BudgetError):
        brute_force_enumerate(1000, sys23, ceiling=100)
    with pytest.raises(BudgetError):
        chain_census(1000, sys23, ceiling=100)


def test_validate_roundtrip_on_enumerated(sys23):
    for u in range(0, 120):
        for pt in brute_force_enumerate(u, sys23):
            assert value(pt, sys23) == u
            values = [value(Partition((pair,)), sys23) for pair in pt]
            assert validate(values, sys23) == pt


def test_scaled_images_land_in_scaled_sets(sys23):
    for u in range(1, 60):
        omega = brute_force_enumerate(u, sys23)
        scaled_p = {map_p(pt) for pt in omega}
        scaled_q = {map_q(pt) for pt in omega}
        assert len(scaled_p) == len(omega)  # injective
        assert len(scaled_q) == len(omega)
        assert scaled_p <= brute_force_enumerate(2 * u, sys23)
        assert scaled_q <= brute_force_enumerate(3 * u, sys23)


def test_census_matches_per_u_brute_force(sys23, sys35):
    for sys_ in (sys23, sys35):
        census = chain_census(150, sys_)
        for u in range(151):
            members = brute_force_enumerate(u, sys_)
            assert census.counts[u] == len(members)
            if members:
                assert census.min_len[u] == min(len(pt) for pt in members)
            else:
                assert census.min_len[u] is None


def test_iter_chains_agrees_with_census(sys23):
    census = chain_census(200, sys23)
    counts = [0] * 201
    for total, pairs in iter_chains(200, sys23):
        assert value(Partition(pairs), sys23) == total
        counts[total] += 1
    assert counts == census.counts
    # the least cut drops only chains below least: brute_force_enumerate(u),
    # the walk with least = u, lists exactly the uncut walk's chains of sum u
    for p, q in ((2, 3), (3, 5), (2, 9), (3, 2)):
        sys_ = make_system(p, q)
        for u in range(301):
            uncut = {Partition(pairs) for total, pairs in iter_chains(u, sys_) if total == u}
            assert brute_force_enumerate(u, sys_) == uncut, (p, q, u)


def test_empty_residues_for_min_greater_two(sys35):
    # residues 2, 8 and 14 mod 15 admit no chained partition at all
    census = chain_census(300, sys35)
    for u in range(301):
        if u % 15 in (2, 8, 14):
            assert census.counts[u] == 0


def test_json_exact_format(sys23):
    pt = validate([18, 1], sys23)
    assert to_json(pt, sys23) == '{"p":2,"q":3,"parts":[[1,2],[0,0]],"sum":"19"}'
    back, _ = from_json(to_json(pt, sys23), sys23)
    assert back == pt


def test_json_rejects_bad_sum(sys23):
    with pytest.raises(Exception):
        from_json('{"p":2,"q":3,"parts":[[1,2]],"sum":"19"}', sys23)


@pytest.mark.parametrize("p,q,u", [(2, 3, 100), (3, 5, 100), (2, 11, 200), (2, 3, 0)])
def test_json_round_trip_reads_the_system_from_the_document(p, q, u):
    sys_ = make_system(p, q)
    members = brute_force_enumerate(u, sys_)
    assert members
    for pt in members:
        assert from_json(to_json(pt, sys_)) == (pt, sys_)


def test_json_document_with_non_coprime_bases_is_refused():
    with pytest.raises(InvalidSystemError, match=r"bases must be coprime, gcd\(4,6\) = 2"):
        from_json('{"p":4,"q":6,"parts":[[0,0]],"sum":"1"}')


def test_to_json_of_non_chains_sums_every_pair(sys23):
    assert to_json(((0, 1), (1, 0)), sys23) == '{"p":2,"q":3,"parts":[[0,1],[1,0]],"sum":"5"}'
    assert to_json(((3, 0), (3, 0)), sys23) == '{"p":2,"q":3,"parts":[[3,0],[3,0]],"sum":"16"}'


def _factor_by_single_divisions(v, sys_):
    """The exponents of v = p^a * q^b by one division per factor (the oracle)."""
    if v < 1:
        return None
    a = b = 0
    while v % sys_.p == 0:
        v //= sys_.p
        a += 1
    while v % sys_.q == 0:
        v //= sys_.q
        b += 1
    return (a, b) if v == 1 else None


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (3, 4), (5, 7), (9, 10)])
def test_factor_value_equals_single_divisions(p, q):
    sys_ = make_system(p, q)
    rng = random.Random(p * 100 + q)
    for v in (-7, -1, 0, 1, p, q, p * q, p * q + 1):
        assert factor_value(v, sys_) == _factor_by_single_divisions(v, sys_), v
    for _ in range(60):
        a, b = rng.randrange(3001), rng.randrange(3001)
        v = p ** a * q ** b * rng.choice((1, 7, p * q + 1))
        assert factor_value(v, sys_) == _factor_by_single_divisions(v, sys_), (a, b)
    assert factor_value(p ** 3000 * q ** 2999, sys_) == (3000, 2999)


def _validate_per_value(values, sys_):
    """``validate`` as it was: factor every value on its own, in input order."""
    decorated = []
    for v in values:
        v = int(v)
        pair = factor_value(v, sys_)
        if pair is None:
            raise NonSmoothPartError(f"{v} is not of the form {sys_.p}^a*{sys_.q}^b")
        decorated.append((v, pair))
    decorated.sort(reverse=True)
    for (v1, _), (v2, _) in zip(decorated, decorated[1:]):
        if v1 == v2:
            raise DuplicatePartError(f"part {v1} occurs more than once")
        if v1 % v2 != 0:
            raise ChainBreakError(f"{v2} does not divide {v1}")
    return Partition(tuple(pair for _, pair in decorated))


def _outcome(check, values, sys_):
    try:
        return check(list(values), sys_)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)


def _chain_values(rng, sys_, parts):
    """Part values of a random chain, with steps of up to p^2 q^2 between parts."""
    a, b = rng.randrange(3), rng.randrange(3)
    chain = [(a, b)]
    for _ in range(parts - 1):
        da, db = rng.choice([(1, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)])
        a, b = a + da, b + db
        chain.append((a, b))
    return [sys_.p**a * sys_.q**b for a, b in chain]


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (3, 4), (5, 7), (9, 10)])
def test_validate_equals_per_value_oracle(p, q):
    sys_ = make_system(p, q)
    rng = random.Random(1000 * p + q)
    stranger = p * q + 1  # coprime to p and q
    for parts in (1, 2, 3, 8, 40, 300, 1500):
        values = _chain_values(rng, sys_, parts)
        rng.shuffle(values)
        i, j = rng.randrange(parts), rng.randrange(parts)
        a, b = factor_value(values[i], sys_)
        cases = [
            values,
            values + [values[i]],  # a duplicate
            values[:i] + [values[i] * stranger] + values[i + 1:],  # not smooth
            values[:i] + [0] + values[i + 1:],
            values[:i] + [-values[i]] + values[i + 1:],
            # smooth, but no chain: (a + 1, b - 1) or (a - 1, b + 1) against (a, b)
            values + [p**(a + 1) * q**(b - 1) if b else p**(a - 1) * q**(b + 1) if a
                      else p * q],
            values + [values[j] * p * q],  # one more chain step, or a break
        ]
        if parts > 1:
            # two non-smooth values: the first in input order is the one named
            twice = list(values)
            twice[i] *= stranger
            twice[j] = twice[j] * stranger + (i == j)
            cases.append(twice)
            cases.append(values[:j] + [values[j] * (p**3 if rng.random() < 0.5 else q**3)]
                         + values[j + 1:])  # a gap that may still be a chain
        for case in cases:
            assert _outcome(validate, case, sys_) == _outcome(_validate_per_value, case, sys_), \
                (parts, case[:4])


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (3, 4), (5, 7), (9, 10)])
def test_value_equals_sum_of_powers(p, q):
    sys_ = make_system(p, q)
    rng = random.Random(10 * p + q)
    assert value(Partition(), sys_) == 0
    for parts in (1, 2, 3, 8, 40, 300, 1500):
        pairs = []
        for v in sorted(_chain_values(rng, sys_, parts), reverse=True):
            pairs.append(factor_value(v, sys_))
        pt = Partition(tuple(pairs))
        assert value(pt, sys_) == sum(p**a * q**b for a, b in pairs), parts
    # pairs that do not descend are still summed exactly
    for pairs in (((0, 0), (1, 0)), ((2, 0), (0, 1)), ((0, 3), (3, 0), (1, 1))):
        assert value(Partition(pairs), sys_) == sum(p**a * q**b for a, b in pairs)


def test_fill_memo_walks_a_chain_of_100000_keys():
    # k is made from k - 1: a recursive walk would pass the recursion limit
    memo = {0: 0}
    assert fill_memo(memo, 100_000, lambda k: (None, (k - 1,)), lambda k, _: memo[k - 1] + 1) \
        == 100_000
    assert len(memo) == 100_001


def test_fill_memo_expands_each_new_key_once():
    # k is made from k // 2 and k - 1, so most keys are asked for twice, and
    # 9 is expanded with its inputs missing, then made once they are filled
    memo, calls = {0: 1, 1: 1, 4: 100}, []

    def expand(k):
        calls.append(k)
        return None, (k // 2, k - 1)

    assert fill_memo(memo, 9, expand, lambda k, _: memo[k // 2] + memo[k - 1]) == 308
    assert sorted(calls) == [2, 3, 5, 6, 7, 8, 9]  # never 4, which memo held
    assert fill_memo(memo, 9, expand, lambda k, _: 0) == 308
    assert len(calls) == 7


def test_fill_memo_hands_make_the_expansion_and_rewrites_no_entry():
    memo = {"a": "kept", "b": "old"}
    made = []

    def make(k, expansion):
        made.append((k, expansion))
        return "+".join(memo[d] for d in expansion[1])

    assert fill_memo(memo, "c", lambda k: ("info", ("a", "b")), make) == "kept+old"
    assert made == [("c", ("info", ("a", "b")))]
    assert memo == {"a": "kept", "b": "old", "c": "kept+old"}
