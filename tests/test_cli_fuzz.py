"""Fuzzed command lines and config files: every subcommand and option comes
from the real parser.

Each case must exit 0, 1 or 2 and never print a Python traceback.  Values
stay small (``--u`` up to 10^6, ``--limit`` up to 2000, ``--n`` up to 3,
``--steps`` up to 50) and reach a little past the valid range on purpose.
``selftest`` is left out (it runs the acceptance suite).  A ``--config``
file holds keys drawn from the command's option dests, flags included, and
one key that is no option; its values are the command-line values or free
text.  Hypothesis runs derandomized with a fixed number of examples, so
every run draws the same command lines and files.  A 401-digit second base
is tried on its own: the float estimates refuse it with an ``error:`` line,
the dense scans stop at their limit, and the tree words equal the
``TreeLanguage`` words.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainpart import cli
from chainpart.codec import TreeLanguage, TreeWord
from chainpart.core import make_system

PARSER = cli.build_parser()
COMMANDS = {
    name: sub
    for action in PARSER._actions if isinstance(action, argparse._SubParsersAction)
    for name, sub in action.choices.items() if name != "selftest"
}
INTS = {
    "u": (-3, 10**6), "limit": (-3, 2000), "n": (-1, 3), "steps": (-1, 50),
    "seed": (0, 2**32), "g": (-3, 10**6), "mod": (-3, 10**6),
    "xmax": (-3, 2000), "ceiling": (0, 10**6), "budget": (0, 10**5),
}
# Bases: mostly valid pairs, with 1, a repeat or a shared factor now and then.
BASES = st.sampled_from(["2", "3", "5", "7", "4", "9", "1"])
# JSON documents of the wrong shape: keys missing, parts no list of pairs,
# exponents that are no integers (null, text, fractions, infinities).
JSON_SCALARS = st.one_of(st.none(), st.integers(-2, 5), st.floats(), st.text("ab1", max_size=2))
JSON_PAIRS = st.lists(st.lists(st.one_of(st.integers(0, 4), JSON_SCALARS), max_size=3), max_size=3)
# Pair lists for ``encode``: integer exponents, and fractions and booleans,
# which it refuses.
EXPONENTS = st.one_of(st.integers(0, 4), st.floats(0, 4), st.booleans())
BAD_DOCS = st.one_of(
    st.dictionaries(st.sampled_from(["p", "q", "parts", "sum"]),
                    st.one_of(JSON_SCALARS, JSON_PAIRS), max_size=4),
    JSON_PAIRS,
    st.lists(JSON_SCALARS, max_size=2),
).map(json.dumps)
STDIN = st.lists(
    st.one_of(
        st.text("0123456789 ", max_size=12),
        st.text("12q", max_size=8),
        st.lists(st.tuples(EXPONENTS, EXPONENTS), max_size=3)
        .map(lambda pairs: json.dumps([list(pair) for pair in pairs])),
        st.just('{"parts": [[1, 0]]}'),
        BAD_DOCS,
    ),
    max_size=3,
).map("\n".join)


def _value(action: argparse.Action) -> st.SearchStrategy[str]:
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest in ("p", "q", "scan_q"):
        return BASES
    low, high = INTS[action.dest]
    return st.integers(low, high).map(str)


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in COMMANDS[name]._actions:
        if action.dest in ("help", "config"):
            continue
        if not action.option_strings:  # a positional argument
            if draw(st.booleans()):
                argv.append(draw(_value(action)))
            continue
        if not action.required and not draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        else:
            repeats = draw(st.integers(1, 2)) if isinstance(action, argparse._AppendAction) else 1
            for _ in range(repeats):
                argv += [flag, draw(_value(action))]
    return argv


# Free text for a config value: no surrogates, which a file cannot hold.
FREE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def config_files(draw, name):
    """The text of a config file for the command ``name``."""
    lines = [f"colour={draw(FREE_TEXT)}"]  # no command has this option
    for action in COMMANDS[name]._actions:
        if not action.option_strings or action.dest in ("help", "config"):
            continue
        if not action.required and not draw(st.booleans()):
            continue
        takes_value = action.choices or action.dest in INTS or action.dest in ("p", "q", "scan_q")
        # free text now and then where a command-line value fits
        value = draw(_value(action) if takes_value and draw(st.integers(0, 3)) < 3 else FREE_TEXT)
        lines.append(f"{action.dest}={value}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(command_lines(), STDIN)
def test_fuzzed_argv_exits_cleanly(argv, stdin):
    _exits_cleanly(argv, stdin)


@pytest.mark.parametrize("name", sorted(COMMANDS))  # each command as often
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(st.data(), STDIN)
def test_fuzzed_config_file_exits_cleanly(name, data, stdin):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "chainpart.cfg"
        path.write_text(data.draw(config_files(name)), encoding="utf-8")
        _exits_cleanly([name, "--config", str(path)], stdin)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.sampled_from(["lattice", "tree"]), st.lists(BAD_DOCS, min_size=1, max_size=3))
def test_encode_of_fuzzed_documents_exits_cleanly(codec, lines):
    # the argv fuzz reaches ``encode`` with a document only now and then
    _exits_cleanly(["encode", "--codec", codec], "\n".join(lines))


@pytest.mark.parametrize("argv", [
    ["enumerate", "--u", "2", "--format", "tree", "--p", "3", "--q", "4"],
    ["encode", "--codec", "tree", "--p", "3", "--q", "4"],
    ["decode", "--codec", "tree", "--p", "3", "--q", "4"],
])
@pytest.mark.parametrize("stdin", ["", "[[1,0]]\n{]\n", "1q\n\u00e9\n"])
def test_tree_words_on_p_other_than_2_exit_cleanly(argv, stdin):
    _exits_cleanly(argv, stdin)


# A second base of 401 digits: past float range, and far past any dense limit.
HUGE_Q = str(10**400 + 1)


@pytest.mark.parametrize("argv", [
    ["alpha", "--p", "2", "--q", HUGE_Q],
    ["sumfn", "--xmax", "100", "--q", HUGE_Q],
    ["scan", "bound", "--limit", "10", "--q", HUGE_Q],
])
def test_a_base_past_float_range_is_a_domain_error(argv):
    code, out, err = _run(argv, "")
    assert (code, out) == (1, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("mode", [["scan", "w"], ["sigma-stats"], ["scan", "maxw"]])
def test_dense_scans_at_a_huge_base_stop_at_the_limit(mode):
    # the fills code only the residues below the limit, so a 401-digit pq costs nothing
    code, out, err = _run([*mode, "--limit", "10", "--q", HUGE_Q], "")
    assert (code, err) == (0, ""), err
    if mode == ["scan", "w"]:
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["u"] for row in rows] == list(range(11))
        for row in rows:
            assert _run(["count", "--u", str(row["u"]), "--q", HUGE_Q], "")[1] == row["w"] + "\n"


def test_tree_words_at_a_huge_base_equal_the_tree_language():
    # the rows of the tree words are read by U & 1 and U mod q, so a 401-digit q costs nothing
    sys_ = make_system(2, int(HUGE_Q))
    words = sorted(TreeWord.render(w, sys_) for w in TreeLanguage(sys_).words(100))
    code, listed, err = _run(["enumerate", "--u", "100", "--format", "tree", "--q", HUGE_Q], "")
    assert (code, err) == (0, "") and sorted(listed.splitlines()) == words
    code, decoded, err = _run(["decode", "--codec", "tree", "--q", HUGE_Q], listed)
    assert (code, err) == (0, "")
    assert [json.loads(line)["sum"] for line in decoded.splitlines()] == ["100"] * len(words)
    code, encoded, err = _run(["encode", "--codec", "tree", "--q", HUGE_Q], decoded)
    assert (code, encoded, err) == (0, listed, "")


def test_graph_dot_of_0_writes_nothing_before_its_error():
    # every label is made before the first write, and the empty partition has none
    code, out, err = _run(["graph", "--u", "0", "--dot"], "")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _exits_cleanly(argv, stdin):
    code, _, err = _run(argv, stdin)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
