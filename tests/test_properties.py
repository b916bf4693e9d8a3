"""Property tests over random coprime bases up to 13 and sums up to 10^60.

Hypothesis runs derandomized with a fixed number of examples, so every run
draws the same inputs.  Sums are drawn as the sum of a random chain, which
is then a known member of Omega(U).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chainpart.codec import TreeWord, lattice_decode, lattice_encode, tree_decode, tree_encode
from chainpart.core import MalformedWordError, make_system, part_value, validate, value
from chainpart.counting import CaseTableCounter, DirectSumCounter
from chainpart.enumeration import sample_uniform
from chainpart.shortest import ShortestTable

LIMIT = 10**60
PAIRS = [(p, q) for p in range(2, 14) for q in range(2, 14) if p != q and math.gcd(p, q) == 1]

systems = st.sampled_from(PAIRS).map(lambda pq: make_system(*pq))


def fixed(max_examples):
    return settings(derandomize=True, max_examples=max_examples, deadline=None, database=None)


@st.composite
def chains(draw):
    """(system, part values) of a random chain, smallest part first, sum <= 10^60."""
    sys_ = draw(systems)
    a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    parts = [part_value((a, b), sys_)]
    steps = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda s: s != (0, 0))
    while draw(st.integers(0, 4)):
        da, db = draw(steps)
        nxt = part_value((a + da, b + db), sys_)
        if sum(parts) + nxt > LIMIT:
            break
        a, b = a + da, b + db
        parts.append(nxt)
    return sys_, parts


@fixed(60)
@given(chains(), st.integers(0, 2**32))
def test_sample_is_member_and_sigma_is_no_longer(chain, seed):
    sys_, parts = chain
    u = sum(parts)
    [pt] = sample_uniform(u, sys_, seed)
    assert validate([part_value(pair, sys_) for pair in pt], sys_) == pt
    assert value(pt, sys_) == u
    parts = min(parts, [part_value(pair, sys_) for pair in pt], key=len)
    witness = ShortestTable(sys_).witness(u)
    assert validate([part_value(pair, sys_) for pair in witness.witness], sys_) == witness.witness
    assert value(witness.witness, sys_) == u
    assert len(witness.witness) == witness.sigma <= len(parts)


@fixed(80)
@given(chains())
def test_words_round_trip(chain):
    sys_, parts = chain
    pt = validate(parts, sys_)
    assert lattice_decode(lattice_encode(pt)) == pt
    if sys_.p == 2:
        assert tree_decode(tree_encode(pt, sys_), sys_) == (sum(parts), pt)


@fixed(80)
@given(st.sampled_from(range(3, 14, 2)),
       st.lists(st.sampled_from("12q"), max_size=40))
def test_tree_decode_accepts_exactly_the_canonical_words(q, letters):
    sys_ = make_system(2, q)
    word = TreeWord("".join(letters))
    try:
        u, pt = tree_decode(word, sys_)
    except MalformedWordError:
        return
    assert value(pt, sys_) == u
    assert tree_encode(pt, sys_) == word


@fixed(30)
@given(systems, st.integers(0, LIMIT))
def test_case_table_matches_direct_sum(sys_, u):
    assert CaseTableCounter(sys_).w(u) == DirectSumCounter(sys_).w(u)
