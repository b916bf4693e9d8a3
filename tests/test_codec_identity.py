"""`encode` and `decode` stdout at the sizes the benchmark runs, pinned by hash.

The golden corpus covers `encode` only with inputs of at most 40 parts.
These hashes are the sha256 of stdout recorded while ``core.validate``
factored every part on its own and both codecs emitted one letter per loop
pass, so a change to a word, a decoded partition or its JSON line shows here.
The `encode` inputs are seeded chains of 10 to 1,500 parts, each written in
the three line styles the CLI reads: part values, a JSON object and a JSON
list of exponent pairs.  The `decode` inputs are the words that `enumerate`
prints for U = 1,266,273 on (2,3) (1,550 members); the tree words are also
pinned for U = 8,533,325 on (2,5) (396 members) and U = 67,643,032,034,754 on
(2,11) (323 members, dot-separated), and in one stream with a non-canonical
word in the middle, where stdout holds the lines before it and the exit is 1.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

import pytest

from chainpart import cli

CHAIN_PARTS = (10, 37, 150, 600, 1500)


def _chain(rng, parts):
    """Exponent pairs of a random chain with ``parts`` parts, largest first."""
    a, b = rng.randint(0, 2), rng.randint(0, 1)
    chain = [(a, b)]
    for _ in range(parts - 1):
        step = rng.random()
        a, b = (a + 1, b) if step < 0.6 else (a, b + 1) if step < 0.85 else (a + 1, b + 1)
        chain.append((a, b))
    return chain[::-1]


def _lines(seed, p, q, style):
    """One input line per chain size, in one line style, built without the library."""
    rng = random.Random(seed)
    out = []
    for parts in CHAIN_PARTS:
        chain = _chain(rng, parts)
        values = [p**a * q**b for a, b in chain]
        if style == "values":
            rng.shuffle(values)  # the CLI reads a multiset of part values
            out.append(" ".join(map(str, values)))
        elif style == "object":
            out.append(json.dumps({"p": p, "q": q, "parts": [list(pair) for pair in chain],
                                   "sum": str(sum(values))}, separators=(",", ":")))
        else:
            out.append(json.dumps([list(pair) for pair in chain]))
    return "\n".join(out) + "\n"


def _run(argv, stdin="", code=0):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == code
    finally:
        sys.stdin = saved
    return out.getvalue()


# (codec, p, q, line style, seed): sha256 of `encode` stdout
ENCODE = {
    ("tree", 2, 3, "values", 1):
        "95af56e869b7613bc365a29a5572fa4037369c7138a67ab6e3aeecfcede6e7cf",
    ("tree", 2, 3, "object", 2):
        "081f7157bc20764f966dcea52bf65cc1c8370f39481612a2bfc4c38eb9cb0cd5",
    ("tree", 2, 3, "pairs", 3):
        "773922720b9b1ed47581fe21d772f1feca0fce863a8677372128a0db31121d0b",
    ("tree", 2, 5, "values", 4):
        "50e2ed50e031b1c3df2060c69d6f472e555aeaa13e0ae561f1bd0561fc57d043",
    ("tree", 2, 7, "object", 5):
        "0694c3746c8300dd47594df964ec42beb6464a11701b0400f90969bf4b87b201",
    ("tree", 2, 11, "pairs", 6):
        "85b8c7bbfb13bf6d4a70f10f19965840ad29e10cb38b5f4670c9e529041007f7",
    ("lattice", 2, 3, "values", 7):
        "5505020ffe1893a1aa77bd94c92830c1d0ccf67b070cb6c5079f1b5a68d31052",
    ("lattice", 2, 3, "object", 8):
        "10b07c9259f23c48a4fbe0ef72f7bb6c5f79cdd3a0719cc31206ec1adc6f3e03",
    ("lattice", 2, 3, "pairs", 9):
        "990635b03b7e41c682dd131dae383f5b51f278d222f4ee2d2d683f5d0d9cac50",
    ("lattice", 3, 4, "values", 10):
        "13dc887276d8331e4156e3c88c80e7d77e8825b123a0353a619b83ed58e684d0",
    ("lattice", 5, 7, "object", 11):
        "5afe48c21889f6a69c861c964b18af38b83523381975982e8e7fc2a130a6903c",
    ("lattice", 2, 5, "pairs", 12):
        "fe3055b97814623fcbc628fe74a3ed3d58690595020be837ff5406802b23f1e7",
}

# (codec, format): sha256 of `decode` stdout on the words of `enumerate --u 1266273`;
# both codecs decode their words to the same partitions in the same order
DECODE = {
    ("lattice", "json"):
        "830057d41651e830f3ce7b3fc36a205f6bd6c927534379d5a09e1d05902078ad",
    ("lattice", "values"):
        "a6e155198be58bbb3218549fab4f8e4abd4a8ee10d8061347f207b371bb940ea",
    ("tree", "json"):
        "830057d41651e830f3ce7b3fc36a205f6bd6c927534379d5a09e1d05902078ad",
    ("tree", "values"):
        "a6e155198be58bbb3218549fab4f8e4abd4a8ee10d8061347f207b371bb940ea",
}


@pytest.mark.parametrize("case", list(ENCODE), ids=lambda c: "-".join(map(str, c)))
def test_encode_output_identity(case):
    codec, p, q, style, seed = case
    text = _run(["encode", "--codec", codec, "--p", str(p), "--q", str(q)],
                _lines(seed, p, q, style))
    assert hashlib.sha256(text.encode()).hexdigest() == ENCODE[case]


@pytest.mark.parametrize("case", list(DECODE), ids=lambda c: "-".join(c))
def test_decode_output_identity(case):
    codec, fmt = case
    words = _run(["enumerate", "--u", "1266273",
                  "--format", "words" if codec == "lattice" else "tree"])
    text = _run(["decode", "--codec", codec, "--format", fmt], words)
    assert hashlib.sha256(text.encode()).hexdigest() == DECODE[case]


# (p, q, u, format): sha256 of `decode --codec tree` stdout on the words of
# `enumerate --format tree` for u; (2,11) words are dot-separated
TREE_DECODE = {
    (2, 5, 8533325, "json"):
        "4b1e7d7982892033ccec5a9afdbd41dd53d5fd89ff4f2655ba131d5dfa9dc42c",
    (2, 5, 8533325, "values"):
        "462cd2c4acb7fc109372477c6b0f11dab61c452d51006f0be793edfd634aa642",
    (2, 11, 67643032034754, "json"):
        "02563c14d97c4471c374063dd66175013c071a09508d5c0b26b017b6789855d9",
    (2, 11, 67643032034754, "values"):
        "f12358d9130536ed07a6d8a3464ca291bf2defd1ff1615725847ae5243336b06",
}


@pytest.mark.parametrize("case", list(TREE_DECODE), ids=lambda c: "-".join(map(str, c)))
def test_tree_decode_output_identity(case):
    p, q, u, fmt = case
    base = ["--p", str(p), "--q", str(q)]
    words = _run(["enumerate", "--u", str(u), "--format", "tree", "--ceiling", str(u)] + base)
    text = _run(["decode", "--codec", "tree", "--format", fmt] + base, words)
    assert hashlib.sha256(text.encode()).hexdigest() == TREE_DECODE[case]


# format: sha256 of `decode --codec tree` stdout when the 776th of the 1,551
# words is "21", which replays to {4} but is not its canonical word
TREE_DECODE_MALFORMED = {
    "json":
        "2d3d9b61841191addbf301d84ec45d0a5040df85a5a26cf5368195f9ec324c6d",
    "values":
        "d79e24ca07134e5e1d47a6334afc9ef6384ba231e22a1a1d25d5fc338f4f6cfd",
}


@pytest.mark.parametrize("fmt", list(TREE_DECODE_MALFORMED))
def test_tree_decode_output_identity_at_a_malformed_word(fmt):
    words = _run(["enumerate", "--u", "1266273", "--format", "tree"]).splitlines(keepends=True)
    stream = "".join(words[:775] + ["21\n"] + words[775:])
    text = _run(["decode", "--codec", "tree", "--format", fmt], stream, code=1)
    assert text.count("\n") == 775
    assert hashlib.sha256(text.encode()).hexdigest() == TREE_DECODE_MALFORMED[fmt]
