"""Tree-word and lattice-word codecs."""

import functools
import itertools
import random
import tracemalloc

import pytest

from chainpart.codec import (
    TREE_ROWS,
    TreeLanguage,
    TreeWord,
    check_hypercode,
    check_infix_code,
    is_valid_lattice_word,
    lattice_decode,
    lattice_encode,
    lattice_language,
    subsequence,
    tree_decode,
    tree_encode,
)
from chainpart.core import (
    MalformedWordError,
    Partition,
    PartitionError,
    _check_chain,
    make_system,
    validate,
)
from chainpart.enumeration import ResidueEnumerator


def tw(text, sys_):
    return TreeWord.parse(text, sys_)


def test_tree_decode_examples(sys23):
    assert tree_decode(tw("1332", sys23), sys23) == (19, validate([18, 1], sys23))
    assert tree_decode(tw("1112222", sys23), sys23) == (19, validate([16, 2, 1], sys23))
    assert tree_decode(tw("131122", sys23), sys23) == (19, validate([12, 6, 1], sys23))


def test_tree_encode_examples(sys23):
    assert tree_encode(validate([16, 2, 1], sys23), sys23).render(sys23) == "1112222"
    assert tree_encode(validate([12, 4, 2, 1], sys23), sys23).render(sys23) == "1112213"
    # the single-part partition of 1 is the tree leaf: its word is empty
    assert tree_encode(validate([1], sys23), sys23).render(sys23) == ""


def test_tree_word_set_omega19(sys23):
    words = {
        tree_encode(pt, sys23).render(sys23)
        for pt in ResidueEnumerator(sys23).omega(19)
    }
    assert words == {"1112222", "1112213", "1332", "131122"}


def test_tree_decode_rejects_chain_break(sys23):
    # replays to {6,2,1} then a +1 step would need the block 3+1 -> 4
    with pytest.raises(MalformedWordError):
        tree_decode(tw("11213", sys23), sys23)


def test_tree_decode_rejects_non_canonical(sys23):
    with pytest.raises(MalformedWordError):
        tree_decode(tw("21", sys23), sys23)  # replays to {4}, whose word is 22
    with pytest.raises(MalformedWordError):
        tree_decode(tw("1", sys23), sys23)  # replays to {2}, whose word is 2


def test_tree_encode_refuses_exactly_the_non_chains(sys23):
    # every sequence of 1-3 pairs with a, b <= 3: each one ``_check_chain``
    # refuses raises, and not a bare ValueError; each chain round-trips
    pairs = list(itertools.product(range(4), repeat=2))
    for n in (1, 2, 3):
        for seq in itertools.product(pairs, repeat=n):
            try:
                _check_chain(list(seq))
            except PartitionError:
                with pytest.raises((PartitionError, MalformedWordError)):
                    tree_encode(Partition(seq), sys23)
            else:
                assert tree_decode(tree_encode(Partition(seq), sys23), sys23)[1] == seq


def test_tree_requires_p2(sys35):
    with pytest.raises(MalformedWordError):
        tree_encode(validate([3], sys35), sys35)


def test_tree_word_rendering_big_q():
    sys2_11 = make_system(2, 11)
    pt = validate([11, 1], sys2_11)
    word = tree_encode(pt, sys2_11)
    assert word.render(sys2_11) == "1.11"
    assert TreeWord.parse("1.11", sys2_11) == word


def test_lattice_encode_examples(sys23):
    assert lattice_encode(Partition.from_pairs([(0, 0), (1, 1)])) == "303"
    assert lattice_encode(validate([12, 4, 2, 1], sys23)) == "1133"
    assert lattice_encode(validate([18, 1], sys23)) == "3203"


def test_lattice_decode_examples(sys23):
    assert lattice_decode("11003") == validate([16, 2, 1], sys23)
    assert lattice_decode("2223") == validate([27], sys23)
    assert lattice_decode("3013") == validate([12, 6, 1], sys23)


def test_lattice_word_syntax():
    assert is_valid_lattice_word("1333")
    assert not is_valid_lattice_word("023")  # forbidden factor 02
    assert not is_valid_lattice_word("123")  # forbidden factor 12
    assert not is_valid_lattice_word("120")  # does not end in 3
    assert not is_valid_lattice_word("")
    with pytest.raises(MalformedWordError):
        lattice_decode("123")


def test_roundtrips_small(sys23):
    en = ResidueEnumerator(sys23)
    for u in range(1, 400):
        for pt in en.omega(u):
            assert tree_decode(tree_encode(pt, sys23), sys23) == (u, pt)
            assert lattice_decode(lattice_encode(pt)) == pt


def test_tree_language_matches_encoded_sets(sys23):
    lang = TreeLanguage(sys23)
    en = ResidueEnumerator(sys23)
    for u in range(1, 400):
        got = set(lang.words(u))
        assert got == {tree_encode(pt, sys23) for pt in en.omega(u)}


@pytest.mark.parametrize("q", [5, 7, 9])
def test_tree_codec_other_odd_bases(q):
    sys_ = make_system(2, q)
    en = ResidueEnumerator(sys_)
    lang = TreeLanguage(sys_)
    for u in range(1, 250):
        members = en.omega(u)
        encoded = set()
        for pt in members:
            word = tree_encode(pt, sys_)
            assert tree_decode(word, sys_) == (u, pt)
            encoded.add(word)
        assert encoded == set(lang.words(u))


def _infix_pairs(words):
    """Every (shorter, longer) pair of ``words`` whose shorter word is a factor of the longer."""
    return {(w, v) for w in words for v in words if len(w) < len(v) and w in v}


def test_code_properties_small(sys23):
    lang = TreeLanguage(sys23)
    en = ResidueEnumerator(sys23)
    for u in range(1, 300):
        assert check_hypercode(lang.words(u)) is None
        words = [lattice_encode(pt) for pt in en.omega(u)]
        assert check_infix_code(words) is None and not _infix_pairs(words)
        # plant a factor of the longest word: the pair found must be a violating one
        planted = words + [max(words, key=len)[1:]]
        assert check_infix_code(planted) in _infix_pairs(planted)


def _lattice_encode_per_letter(pt):
    """``lattice_encode`` as it was: one letter per loop pass along the path."""
    chain = list(reversed(pt.parts))  # ascending: smallest part first
    top = chain[-1]
    members = set(chain)
    out = []
    cur = (0, 0)
    idx = 0
    while True:
        in_chain = cur in members
        if cur == top:
            out.append("3")
            break
        while chain[idx] == cur or (chain[idx][0] <= cur[0] and chain[idx][1] <= cur[1]):
            idx += 1
        target = chain[idx]
        if cur[1] < target[1]:  # North before East: minimal abscissas
            out.append("3" if in_chain else "2")
            cur = (cur[0], cur[1] + 1)
        else:
            out.append("1" if in_chain else "0")
            cur = (cur[0] + 1, cur[1])
    return "".join(out)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (5, 7)])
def test_lattice_encode_equals_per_letter_oracle(p, q):
    sys_ = make_system(p, q)
    en = ResidueEnumerator(sys_)
    for u in range(1, 3001):
        for pt in en.omega(u):
            assert lattice_encode(pt) == _lattice_encode_per_letter(pt), pt


def test_grammar_bijection_short_words():
    seen = set()
    for word in lattice_language(8):
        assert is_valid_lattice_word(word)
        pt = lattice_decode(word)
        assert lattice_encode(pt) == word
        seen.add(word)
    assert "3" in seen and "1333" in seen and "3203" in seen
    assert "123" not in seen and "023" not in seen


def test_subsequence_helper():
    assert subsequence("132", "1332")
    assert not subsequence("231", "1332")


def test_tree_language_deep_value(sys23):
    # 3*2^a - 1 has a single partition, 2a+1 letters deep in the binary table
    words = TreeLanguage(sys23).words(3 * 2**1200 - 1)
    assert len(words) == 1
    assert len(words[0]) == 2401


@pytest.mark.parametrize("q", [3, 5])
def test_tree_language_has_no_words_below_0(q):
    # the only branch of -1 is 12, back into -1: the words of no negative v are walked
    lang = TreeLanguage(make_system(2, q))
    assert [lang.words(v) for v in (-1, -2, -3)] == [(), (), ()]
    assert lang.words(0) == () and lang.words(1) == ("",)


def _tree_decode_by_descent(word, sys_, descend_and_lift, binary_oracle):
    """``tree_decode`` as it was: the descent from U takes at each node the
    branch whose labels come next in the word, then lifts the partition."""
    letters = str(word)
    u = 1
    for letter in reversed(letters):
        u = u + 1 if letter == "1" else u * (2 if letter == "2" else sys_.q)
    i = 0

    def match(v, row):
        nonlocal i
        for branch in row:
            if letters.startswith(branch.labels, i):
                i += len(branch.labels)
                return branch
        raise MalformedWordError(f"{TreeWord.render(word, sys_)} is not a canonical tree word")

    pt = descend_and_lift(binary_oracle(sys_), u, match)
    if i < len(letters):
        raise MalformedWordError(f"{TreeWord.render(word, sys_)} is not a canonical tree word")
    return u, pt


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 15, 17])
def test_binary_table_labels_undo_to_the_oracle_arguments(q, binary_oracle):
    """Each residue r < 2q reads the oracle's labels from ``TREE_ROWS`` by
    r & 1 and r mod q as 0, 1 or other; undoing them from x = 2q v + r, first
    label first (1 subtracts 1, 2 halves, q divides by q), gives the oracle's
    mul v + off."""
    sys_ = make_system(2, q)
    oracle = binary_oracle(sys_)
    assert oracle.modulus == 2 * q
    for r, branches in enumerate(oracle.rows):
        labels_row = TREE_ROWS[r & 1][min(r % q, 2)]
        assert labels_row == tuple(branch.labels for branch in branches), r
        for v in range(50):
            for branch in branches:
                x = 2 * q * v + r
                for letter in branch.labels:
                    x = x - 1 if letter == "1" else x // (2 if letter == "2" else q)
                assert x == branch.mul * v + branch.off, (r, v, branch)


@pytest.mark.parametrize("op", ["decode", "encode", "enumerate", "language"])
def test_tree_ops_at_a_large_base_trace_under_64_kb(op):
    # the rows are read by U & 1 and U mod q, so nothing is sized by q; the
    # tables of 2q rows per system traced 91.8 MiB for this decode and
    # 3.3 MiB for this encode
    sys_ = make_system(2, 100003)
    pt = validate([64, 32, 4], sys_)
    run = {
        "decode": lambda: tree_decode(tw("1.100003", sys_), sys_),
        "encode": lambda: tree_encode(pt, sys_),
        "enumerate": lambda: sorted(tree_encode(m, sys_) for m in
                                    ResidueEnumerator(sys_).by_value(100)),
        "language": lambda: sorted(TreeLanguage(sys_).words(100)),
    }[op]
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if op == "encode":
        assert tree_decode(result, sys_) == (100, pt)
    else:
        assert result == {
            "decode": (100004, validate([100003, 1], sys_)),
            "enumerate": sorted(TreeLanguage(sys_).words(100)),
            "language": sorted(tree_encode(m, sys_) for m in ResidueEnumerator(sys_).by_value(100)),
        }[op]
    assert peak < 64 * 2**10, peak


@pytest.fixture
def by_descent(descend_and_lift, binary_oracle):
    return functools.partial(_tree_decode_by_descent, descend_and_lift=descend_and_lift,
                             binary_oracle=binary_oracle)


def _outcome(decode, word, sys_):
    try:
        return decode(word, sys_)
    except MalformedWordError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_tree_codec_equals_descent_oracle(q, by_descent):
    """Every word of every u <= 3000 decodes as by the descent, and each
    member encodes to the one word that the descent decodes to it."""
    sys_ = make_system(2, q)
    lang = TreeLanguage(sys_)
    en = ResidueEnumerator(sys_)
    for u in range(1, 3001):
        word_of = {}
        for word in lang.words(u):
            expected = by_descent(word, sys_)
            assert tree_decode(word, sys_) == expected == (u, expected[1]), word
            word_of[expected[1]] = word
        members = en.omega(u)
        assert len(members) == len(word_of)
        for pt in members:
            assert tree_encode(pt, sys_) == word_of[pt], pt


def test_tree_decode_equals_descent_oracle_on_random_strings(by_descent):
    rng = random.Random(14)
    outcomes = set()
    for q in (3, 5, 7, 11):
        sys_ = make_system(2, q)
        for _ in range(500):
            word = TreeWord("".join(rng.choice("12q") for _ in range(rng.randint(0, 40))))
            expected = _outcome(by_descent, word, sys_)
            assert _outcome(tree_decode, word, sys_) == expected, word
            outcomes.add(expected[0] is MalformedWordError)
    assert outcomes == {True, False}  # both canonical and non-canonical words were drawn


def test_tree_decode_messages(sys23, by_descent):
    for text in ("21", "11213", "1", "23", "31"):
        message = f"{text} is not a canonical tree word"  # the rendered word
        for decode in (tree_decode, by_descent):
            with pytest.raises(MalformedWordError) as info:
                decode(tw(text, sys23), sys23)
            assert str(info.value) == message


def test_tree_word_is_the_string_of_its_letters(sys23):
    word = TreeWord("1qq2")
    assert isinstance(word, str) and word == "1qq2" and TreeWord("") == ""
    assert type(word.letters) is str and word.letters == word
    assert (len(word), word.render(sys23)) == (4, "1332")
    for letters in ("13", "1x", "x1", "1q 2"):
        with pytest.raises(MalformedWordError, match="invalid tree letter"):
            TreeWord(letters)
    with pytest.raises(MalformedWordError, match="invalid tree letter '3'"):
        TreeWord("12q3q")


def test_tree_word_parse_paths():
    sys23, sys25, sys2_11 = make_system(2, 3), make_system(2, 5), make_system(2, 11)
    for text, sys_, word in ((" 1332\n", sys23, "1qq2"), ("1.3.3.2", sys23, "1qq2"),
                             ("125", sys25, "12q"), ("1.11.2", sys2_11, "1q2"),
                             ("11", sys2_11, "q"), ("", sys23, ""), (" ", sys2_11, "")):
        parsed = TreeWord.parse(text, sys_)
        assert type(parsed) is TreeWord and parsed == word, text
    for text, sys_, token in (("1q", sys23, "q"), ("1 3", sys23, " "), ("135", sys23, "5"),
                              ("1..3", sys23, ""), ("1.3x", sys23, "3x"), ("111", sys2_11, "111")):
        with pytest.raises(MalformedWordError) as info:
            TreeWord.parse(text, sys_)
        assert str(info.value) == f"token {token!r} is not a letter for {sys_}", text


@pytest.mark.parametrize("q", [3, 5, 11, 13])
def test_tree_word_render_parse_round_trip(q):
    # undotted for q < 10, dotted from 10 on; the empty word renders as ""
    sys_ = make_system(2, q)
    rng = random.Random(q)
    words = [TreeWord("".join(rng.choice("12q") for _ in range(rng.randint(0, 40))))
             for _ in range(300)] + [TreeWord("")]
    for word in words:
        text = word.render(sys_)
        assert ("." in text) == (q >= 10 and len(word) > 1), text
        assert TreeWord.parse(text, sys_) == word, text
    assert TreeWord("").render(sys_) == "" and TreeWord.parse("", sys_) == ""


@pytest.mark.parametrize("q", [3, 5, 11])
def test_tree_decode_takes_the_plain_words_of_the_tree_language(q):
    # TreeLanguage.words gives plain strs; each decodes as its TreeWord does
    sys_ = make_system(2, q)
    lang, en = TreeLanguage(sys_), ResidueEnumerator(sys_)
    for u in (1, 19, 100, 999):
        words = lang.words(u)
        assert all(type(w) is str for w in words)
        decoded = {tree_decode(w, sys_) for w in words}
        assert decoded == {tree_decode(TreeWord(w), sys_) for w in words}
        assert decoded == {(u, pt) for pt in en.omega(u)}
    with pytest.raises(MalformedWordError, match="^21 is not a canonical tree word$"):
        tree_decode("21", make_system(2, 3))


def _check_hypercode_pairwise(words):
    """``check_hypercode`` as it was: every pair, shortest first."""
    by_len = sorted(words, key=len)
    for i, w in enumerate(by_len):
        for v in by_len[i + 1:]:
            if len(w) < len(v) and subsequence(w, v):
                return (w, v)
    return None


@pytest.mark.parametrize("q", [3, 5])
def test_check_hypercode_equals_pairwise_oracle(q):
    lang = TreeLanguage(make_system(2, q))
    for u in range(1, 2001):
        words = lang.words(u)
        assert check_hypercode(words) is None is _check_hypercode_pairwise(words)
        # plant a subsequence of a word: the first pair found must agree
        longest = max(words, key=len)
        if len(longest) >= 2:
            planted = list(words) + [longest[1:]]
            bad = check_hypercode(planted)
            assert bad is not None and bad == _check_hypercode_pairwise(planted)


def test_check_hypercode_planted_pairs():
    assert check_hypercode([]) is None
    assert check_hypercode(["1q2", "q21", "2q1"]) is None  # equal lengths never violate
    assert check_hypercode(["12", "2q", "q1q2"]) == ("12", "q1q2")
    # same letter counts, not a subsequence: the filter passes, the test refuses
    assert check_hypercode(["21", "1q2"]) is None
    words = ["qq", "1212", "2q2q", "q2", "11qq2"]
    assert check_hypercode(words) == _check_hypercode_pairwise(words) == ("qq", "2q2q")

def test_check_infix_code_planted_pairs():
    assert check_infix_code([]) is None
    assert check_infix_code(["13", "31"]) is None  # equal lengths never violate
    assert check_infix_code(["13", "103"]) is None  # a subsequence, not a factor
    assert check_infix_code(["3", "203", "1133"]) == ("3", "203")
