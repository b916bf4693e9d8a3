"""End-to-end CLI behavior: dispatch, formats, determinism, exit codes."""

import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from chainpart import cli, core
from chainpart.core import make_system


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_dispatch(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--q", "3", "--u", "27")
    assert code == 0
    assert out == "7\n"


def test_count_all_methods(capsys):
    code, out, _ = run(capsys, "count", "--u", "19", "--method", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"u": 19, "cases": "4", "halving": "4", "direct": "4", "agree": True}


def test_count_alias_methods(capsys):
    for method in ("general", "p2", "theorem2"):
        code, out, _ = run(capsys, "count", "--u", "27", "--method", method)
        assert (code, out) == (0, "7\n")


def test_enumerate_words(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--q", "3", "--u", "19",
                       "--format", "words")
    assert code == 0
    assert set(out.split()) == {"3203", "3013", "1133", "11003"}


def test_enumerate_json_sum_strings(capsys):
    code, out, _ = run(capsys, "enumerate", "--u", "5", "--format", "json")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["sum"] for d in docs] == ["5"]
    assert docs[0]["parts"] == [[2, 0], [0, 0]]


def test_enumerate_json_line_reads_back_with_its_system(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--q", "5", "--u", "100")
    assert code == 0 and out
    sys35 = make_system(3, 5)
    for line in out.splitlines():
        pt, sys_ = core.from_json(line)
        assert sys_ == sys35
        assert json.loads(line)["values"] == [str(core.part_value(pair, sys35)) for pair in pt]


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--u", "19", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "u,values"
    assert lines[1] == "19,18 1"
    assert len(lines) == 5


def test_enumerate_deterministic(capsys):
    _, out1, _ = run(capsys, "enumerate", "--u", "57", "--format", "words")
    _, out2, _ = run(capsys, "enumerate", "--u", "57", "--format", "words")
    assert out1 == out2


def test_enumerate_deep_single_member(capsys):
    # W = 1 at 11^1500 on (11,13); the descent is 1,500 levels deep
    u = 11**1500
    code, out, err = run(capsys, "enumerate", "--p", "11", "--q", "13", "--u", str(u),
                         "--ceiling", str(u))
    assert (code, err) == (0, "")
    assert [json.loads(line)["parts"] for line in out.splitlines()] == [[[1500, 0]]]


def test_enumerate_zero_is_the_empty_partition(capsys):
    # Omega(0) holds only the empty partition, whose json line lists no part
    expected = '{"p":2,"q":3,"parts":[],"sum":"0","values":[]}\n'
    assert run(capsys, "enumerate", "--u", "0", "--format", "json") == (0, expected, "")


def test_enumerate_budget_counts_members(capsys):
    # W(60) = 5 on (2,3): a budget of 4 is refused before any member is built
    code, out, err = run(capsys, "enumerate", "--u", "60", "--budget", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "budget of 4" in err and "Traceback" not in err
    code, out, _ = run(capsys, "enumerate", "--u", "60", "--budget", "5")
    assert code == 0 and len(out.splitlines()) == 5


def test_enumerate_at_9555147_traces_under_3_2_mb(monkeypatch):
    # a list of the walk sorted by byte keys and written 256 lines at a time;
    # a set sorted by tuples of int values, 4,096 lines a write, traced 4.4 MB.
    # The untraced first run imports the modules and builds the parser.
    argv = ["enumerate", "--u", "9555147", "--format", "json"]
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert cli.main(argv) == 0
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.getvalue().count("\n") == 5413
    assert peak < 3.2 * 2**20, peak


def test_encode_decode_roundtrip(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('[[1,2],[0,0]]\n18 1\n'))
    code, out, _ = run(capsys, "encode", "--codec", "lattice")
    assert code == 0
    assert out.splitlines() == ["3203", "3203"]
    monkeypatch.setattr("sys.stdin", io.StringIO("3203\n"))
    code, out, _ = run(capsys, "decode", "--codec", "lattice", "--format", "values")
    assert code == 0
    assert out == "18 1\n"


def test_tree_codec_cli(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1332\n"))
    code, out, _ = run(capsys, "decode", "--codec", "tree", "--format", "values")
    assert code == 0
    assert out == "18 1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("18 1\n"))
    code, out, _ = run(capsys, "encode", "--codec", "tree")
    assert code == 0
    assert out == "1332\n"


def test_long_chain_tree_roundtrip(capsys, monkeypatch):
    # a 3,000-part chain on (2,5): each part divides the next, one exponent up per step
    rng = random.Random(9)
    a = b = 0
    values = []
    for _ in range(3000):
        values.append(2 ** a * 5 ** b)
        if rng.random() < 0.5:
            a += 1
        else:
            b += 1
    line = " ".join(map(str, reversed(values)))
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, word, _ = run(capsys, "encode", "--p", "2", "--q", "5", "--codec", "tree")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(word))
    code, out, _ = run(capsys, "decode", "--p", "2", "--q", "5", "--codec", "tree",
                       "--format", "values")
    assert (code, out) == (0, line + "\n")


class _Stdout(io.StringIO):
    """A stdout that keeps each write and may say it is a terminal or fail."""

    def __init__(self, tty=False, fail=False):
        super().__init__()
        self.tty, self.fail, self.writes = tty, fail, []

    def isatty(self):
        return self.tty

    def write(self, text):
        self.writes.append(text)
        if self.fail:
            raise BrokenPipeError
        return super().write(text)


def test_decode_writes_each_line_at_once_on_a_terminal(monkeypatch):
    out = _Stdout(tty=True)
    monkeypatch.setattr("sys.stdin", io.StringIO("1332\n1332\n"))
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(["decode", "--codec", "tree", "--format", "values"]) == 0
    assert out.writes == ["18 1\n", "18 1\n"]


def test_decode_does_not_repeat_a_failed_write(monkeypatch):
    out = _Stdout(fail=True)
    monkeypatch.setattr(cli, "_BLOCK_LINES", 1)
    monkeypatch.setattr("sys.stdin", io.StringIO("1332\n1332\n"))
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(["decode", "--codec", "tree", "--format", "values"]) == 1
    assert out.writes == ["18 1\n"]


def _cli_process(*argv, **kwargs):
    """``python -m chainpart.cli argv`` in a new interpreter on this package, stderr piped;
    stdout keeps its default buffering, so a short output is written only when flushed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "chainpart.cli", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def test_a_closed_pipe_ends_the_command_with_exit_1_and_no_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # output is far larger than a pipe's buffer, so the closing comes mid-write
    with _cli_process("scan", "w", "--limit", "200000", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == '{"u":0,"w":"1"}\n'
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [("count", "--u", "5"), ("sigma", "--witness", "--u", "1000")])
def test_a_full_device_is_one_error_line(argv):
    with open("/dev/full", "w") as full, _cli_process(*argv, stdout=full) as proc:
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, "error: [Errno 28] No space left on device\n")


def test_an_unreadable_stdin_leaves_stdout_as_it_is(capsys, monkeypatch):
    # the error is stdin's, so stdout, which takes its bytes, is not sent to devnull
    class Stdin(io.StringIO):
        def __iter__(self):
            raise OSError(5, "Input/output error")

    dup2 = []
    monkeypatch.setattr("sys.stdin", Stdin())
    monkeypatch.setattr(os, "dup2", lambda *fds: dup2.append(fds))
    assert run(capsys, "decode") == (1, "", "error: [Errno 5] Input/output error\n")
    assert dup2 == []


def test_no_stdout_is_no_traceback(capsys, monkeypatch):
    # a process started with its stdout closed has sys.stdout None
    monkeypatch.setattr("sys.stdout", None)
    assert cli.main(["count", "--u", "5"]) == 0
    assert cli.main(["count", "--p", "4", "--q", "2", "--u", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # the row writers still make their lines, so an error in one still ends the command
    for argv in (["scan", "w", "--limit", "10"], ["enumerate", "--u", "100"],
                 ["sigma-stats", "--limit", "100", "--emit", "csv"]):
        assert cli.main(argv) == 0, argv
    monkeypatch.setattr("sys.stdin", io.StringIO("3203\n"))
    assert cli.main(["decode"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr("sys.stdin", io.StringIO("123\n"))
    assert cli.main(["decode"]) == 1
    assert capsys.readouterr().err == "error: '123' is not a lattice word\n"


@pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (5, 7)])
def test_sigma_stats_csv_runs_no_fold(capsys, monkeypatch, p, q):
    # csv prints the histogram alone: its rows need no stats(), which json still calls
    from chainpart import shortest
    base = ["sigma-stats", "--p", str(p), "--q", str(q), "--limit", str(10**5)]
    histogram = shortest.ShortestTable(make_system(p, q)).stats(10**5).histogram

    def no_fold(self, limit):
        raise RuntimeError("stats ran")

    monkeypatch.setattr(shortest.ShortestTable, "stats", no_fold)
    rows = "".join(f"{s},{n}\n" for s, n in histogram.items())
    assert run(capsys, *base, "--emit", "csv") == (0, "sigma,count\n" + rows, "")
    with pytest.raises(RuntimeError, match="stats ran"):
        cli.main([*base, "--emit", "json"])


def test_decode_malformed_word_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("123\n"))
    code, _, err = run(capsys, "decode")
    assert code == 1
    assert "lattice word" in err


def test_decode_names_a_non_canonical_tree_word_as_typed(capsys, monkeypatch):
    # 21 replays to {4}, whose word is 22; the one error line names the word as typed
    monkeypatch.setattr("sys.stdin", io.StringIO("21\n"))
    code, out, err = run(capsys, "decode", "--codec", "tree")
    assert (code, out, err) == (1, "", "error: 21 is not a canonical tree word\n")


@pytest.mark.parametrize("codec, word", [("lattice", "3203"), ("tree", "1332")])
def test_encode_writes_the_words_before_a_bad_line(capsys, monkeypatch, codec, word):
    # the word of the good line is written, then the bad line ends the run
    monkeypatch.setattr("sys.stdin", io.StringIO("18 1\n[[1]]\n18 1\n"))
    expected = (1, word + "\n", "error: not a list of exponent pairs\n")
    assert run(capsys, "encode", "--codec", codec) == expected


def test_encode_refuses_lines_of_the_wrong_shape(capsys, monkeypatch):
    # a missing key, non-list parts or pairs, a null sum, an infinite exponent
    for line in ('{}', '{"p":2}', '[1]', '{"p":2,"q":3,"parts":5}',
                 '{"p":2,"q":3,"parts":[[1,0]],"sum":null}', '[[1e400,0]]'):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code, out, err = run(capsys, "encode")
        assert (code, out) == (1, ""), line
        assert err.startswith("error: ") and "Traceback" not in err, line


@pytest.mark.parametrize("codec", ["lattice", "tree"])
@pytest.mark.parametrize("line", ['[[1]]', '[[1,2,3]]', '[1]', '{"p":2,"q":3,"parts":[5]}',
                                  '{"p":2,"q":3,"parts":"ab"}', '{"p":2,"q":3,"parts":[[1]]}',
                                  '{"p":2,"q":3,"parts":{"ab":1}}', '{"p":2,"q":3,"parts":5}'])
def test_encode_names_one_shape_error_for_exponent_pairs(capsys, monkeypatch, codec, line):
    # a pair of the wrong length or a string of parts once read "not enough values to unpack"
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    expected = (1, "", "error: not a list of exponent pairs\n")
    assert run(capsys, "encode", "--codec", codec) == expected


def test_encode_refuses_fractions_and_booleans(capsys, monkeypatch):
    # each of these once printed the word 03 of the partition 2 and exited 0
    for line in ('[[1.5,0]]', '{"p":2.9,"q":3,"parts":[[1.9,0]],"sum":2.5}',
                 '[[true,false]]', '{"p":2,"q":3,"parts":[[1,0]],"sum":2.0}',
                 '{"p":"2","q":3,"parts":[[1,0]]}', '{"p":2,"q":3,"parts":[[1,0]],"sum":"2.0"}'):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code, out, err = run(capsys, "encode")
        assert (code, out) == (1, ""), line
        assert err.startswith("error: ") and "Traceback" not in err, line
    # a sum is an integer or a decimal string
    for line in ('{"p":2,"q":3,"parts":[[1,0]],"sum":2}', '{"p":2,"q":3,"parts":[[1,0]],"sum":"2"}',
                 '[[1,0]]'):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert run(capsys, "encode")[:2] == (0, "03\n"), line


def test_scan_smallw_csv(capsys):
    code, out, _ = run(capsys, "scan", "smallw", "--limit", "12", "--emit", "csv")
    assert code == 0
    assert out.splitlines() == ["u,w", "0,1", "1,1", "2,1", "5,1", "11,1",
                                "3,2", "4,2", "6,2", "7,2", "8,2"]


def test_sigma_witness(capsys):
    code, out, _ = run(capsys, "sigma", "--u", "19", "--witness")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == 2
    assert doc["values"] == ["18", "1"]
    assert doc["cost"] == {"p_ops": 1, "q_ops": 2, "adds": 1}


def test_chainpow(capsys):
    code, out, _ = run(capsys, "chainpow", "--g", "5", "--u", "19", "--mod", "101")
    assert code == 0
    assert out.strip() == str(pow(5, 19, 101))


def test_scan_w_csv(capsys):
    code, out, _ = run(capsys, "scan", "w", "--limit", "5", "--emit", "csv")
    assert code == 0
    assert out.splitlines() == ["u,w", "0,1", "1,1", "2,1", "3,2", "4,2", "5,1"]


def test_scan_maxw(capsys):
    code, out, _ = run(capsys, "scan", "maxw", "--limit", "30", "--emit", "csv")
    assert code == 0
    assert out.splitlines() == ["u,maxw,class", "3,2,q-odd", "9,4,q-odd",
                                "21,5,q-odd", "27,7,q-odd"]


def test_scan_monotonicity_alias(capsys):
    code, out, _ = run(capsys, "scan", "theorem4", "--limit", "2000")
    assert code == 0
    assert json.loads(out) == {"q": 3, "limit": 2000, "violations": 0}


def test_scan_monotonicity_refuses_p_other_than_2(capsys):
    # the (2,q) pattern is not checked on (p,q): the report is refused, as maxw's
    for mode in ("monotonicity", "theorem4"):
        for pq in (("3", "5"), ("3", "4")):
            code, out, err = run(capsys, "scan", mode, "--limit", "100", "--p", pq[0], "--q", pq[1])
            assert (code, out, err) == (
                1, "", "error: the monotonicity pattern requires p = 2\n"), (mode, pq)


#: Tree words on p != 2, which each command refuses before any work.
TREE_ON_P_NOT_2 = [
    ["enumerate", "--u", "2", "--format", "tree", "--p", "3", "--q", "4"],
    ["enumerate", "--u", "4", "--format", "tree", "--p", "3", "--q", "4"],
    ["encode", "--codec", "tree", "--p", "3", "--q", "4"],
    ["decode", "--codec", "tree", "--p", "3", "--q", "4"],
]


@pytest.mark.parametrize("argv", TREE_ON_P_NOT_2)
@pytest.mark.parametrize("stdin", ["", "[[1,0]]\n", "1q\n"])
def test_tree_words_on_p_other_than_2_are_refused_before_any_input(capsys, monkeypatch, argv,
                                                                   stdin):
    # enumerate at u = 2 once printed nothing and exited 0, and encode and
    # decode exited 0 on empty stdin
    read = []
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    monkeypatch.setattr("chainpart.enumeration.ResidueEnumerator.by_value",
                        lambda *args: read.append(args))
    assert run(capsys, *argv) == (1, "", "error: tree words are defined for p = 2 systems only\n")
    assert not read and sys.stdin.read() == stdin


def test_scan_monotonicity_refuses_a_negative_limit(capsys):
    for mode in ("monotonicity", "theorem4", "w"):
        code, out, err = run(capsys, "scan", mode, "--limit", "-1")
        assert (code, out, err) == (1, "", "error: limit must be >= 0\n"), mode


def test_negative_counts_are_refused(capsys):
    for argv, name in ((("walk", "--u", "10", "--steps", "-3"), "steps"),
                       (("sample", "--u", "10", "--n", "-1"), "n")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {name} must be >= 0\n"), argv
    # zero is still a count
    assert run(capsys, "sample", "--u", "10", "--n", "0") == (0, "", "")
    code, out, _ = run(capsys, "walk", "--u", "10", "--steps", "0")
    assert code == 0 and json.loads(out)["steps"] == 0


def test_scan_bound(capsys):
    code, out, _ = run(capsys, "scan", "bound", "--limit", "2000")
    assert code == 0
    assert json.loads(out)["violations"] == 0


def test_graph_summary_and_dot(capsys):
    code, out, _ = run(capsys, "graph", "--u", "27")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 7 and doc["connected"] is True
    code, out, _ = run(capsys, "graph", "--u", "27", "--dot")
    assert code == 0
    assert out.startswith('graph "omega27"')
    assert '"2223";' in out


def test_graph_past_the_budget_is_refused(capsys):
    # W(10^1200 + 7) is read from a sweep of two rows, so no row of W is kept
    u = 10**1200 + 7
    code, out, err = run(capsys, "graph", "--u", str(u))
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith(f"error: Omega({u}) has ") and err.endswith("past the budget of 2000000\n")


def test_graph_summary_of_a_disconnected_graph(capsys, monkeypatch):
    # the summary reads connectivity from the diameter's first BFS alone
    from chainpart import graph23
    from chainpart.core import Partition

    lone = (Partition(((0, 1),)), Partition(((1, 0), (0, 0))))
    graph = graph23.TransitionGraph(3, lone, ((),) * len(lone))
    monkeypatch.setattr(graph23, "build_graph", lambda u, sys_: graph)
    code, out, _ = run(capsys, "graph", "--u", "3")
    assert code == 0
    assert json.loads(out) == {"u": 3, "vertices": 2, "edges": 0,
                               "connected": False, "diameter": -1}


def test_walk_deterministic(capsys):
    _, out1, _ = run(capsys, "walk", "--u", "27", "--steps", "25", "--seed", "9")
    _, out2, _ = run(capsys, "walk", "--u", "27", "--steps", "25", "--seed", "9")
    assert out1 == out2


def test_sample_deterministic(capsys):
    _, out1, _ = run(capsys, "sample", "--u", "171", "--n", "5", "--seed", "3")
    _, out2, _ = run(capsys, "sample", "--u", "171", "--n", "5", "--seed", "3")
    assert out1 == out2
    assert len(out1.splitlines()) == 5


def test_sample_of_an_empty_omega(capsys, monkeypatch):
    # Omega(7) is empty for (3,5): no draw is no error and needs no sweep
    from chainpart import decomposition

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep for no draw")

    with monkeypatch.context() as patch:
        patch.setattr(decomposition, "_sweep", no_sweep)
        assert run(capsys, "sample", "--u", "7", "--p", "3", "--q", "5", "--n", "0") == (0, "", "")
    assert run(capsys, "sample", "--u", "7", "--p", "3", "--q", "5", "--n", "1") == (
        1, "", "error: no strictly chained partition of 7 for (3,5)\n")


def test_sample_deep_exponent(capsys):
    u = 2**1200 + 12345
    code, out, err = run(capsys, "sample", "--u", str(u))
    assert (code, err) == (0, "")
    assert json.loads(out)["sum"] == str(u)


def test_options_belong_to_their_commands(capsys):
    code, _, err = run(capsys, "count", "--u", "5", "--threads", "2")
    assert code == 1
    assert "usage" in err and "--threads" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on int string digits")
def test_overlong_u_is_a_short_usage_error(capsys):
    code, out, err = run(capsys, "count", "--u", "1" + "0" * 5000)
    assert (code, out) == (1, "")
    assert len(err.encode()) < 300 and "Traceback" not in err
    assert "--u" in err and str(sys.get_int_max_str_digits()) in err


def test_bad_int_value_is_named(capsys):
    code, _, err = run(capsys, "count", "--u", "12x")
    assert code == 1
    assert "argument --u: invalid int value: '12x'" in err


def test_alpha_output(capsys):
    code, out, _ = run(capsys, "alpha", "--p", "3", "--q", "4")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["alpha"]) - 1.0) < 1e-10
    assert abs(float(doc["c_upper"]) - 1.97744865) < 1e-6


def test_sumfn_csv(capsys):
    code, out, _ = run(capsys, "sumfn", "--xmax", "64", "--emit", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,s,ratio,c_upper"
    assert len(lines) == 7  # x = 2, 4, ..., 64


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--p", "2", "--q", "4", "--u", "5")
    assert code == 1
    assert "coprime" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--u", "not-a-number")
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("module,argv", [("enumeration", ["sample", "--u", "19"]),
                                         ("shortest", ["sigma", "--u", "19", "--witness"])])
def test_a_wrong_sum_is_an_invariant_violation(capsys, monkeypatch, module, argv):
    # the sampler and the witness check each member's sum by a raise, which -O keeps
    monkeypatch.setattr(f"chainpart.{module}.value", lambda pt, sys_: 18)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("invariant violation: ") and " u" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"),
                                   MemoryError()])
def test_resource_errors_exit_1_without_traceback(capsys, monkeypatch, error):
    def fail(args, sys_):
        raise error

    monkeypatch.setattr(cli, "_cmd_count", fail)
    code, out, err = run(capsys, "count", "--u", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.strip()) > len("error:")
    assert "Traceback" not in err


def test_keyboard_interrupt_propagates(monkeypatch):
    def interrupt(args, sys_):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_count", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["count", "--u", "5"])


def test_ceiling_env(capsys, monkeypatch):
    monkeypatch.setenv("CHAINPART_CEILING", "100")
    code, _, err = run(capsys, "enumerate", "--u", "200")
    assert code == 1
    assert "ceiling" in err


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 14
    assert lines[-1] == "OK 14/14 criteria"


def test_selftest_times_each_criterion_on_stderr(capsys):
    # one line per criterion, in CRITERIA order, as "01 omega19-words: 0.012 s"
    code, out, err = run(capsys, "selftest", "--quick")
    assert code == 0
    names = [line.split(" ", 1)[1].split(":")[0] for line in out.splitlines()[:-1]]
    assert [int(name[:2]) for name in names] == list(range(1, 15))
    timed = [line.rsplit(": ", 1) for line in err.splitlines()]
    assert [name for name, _ in timed] == names
    assert all(t.endswith(" s") and float(t[:-2]) >= 0 for _, t in timed)


def test_selftest_detects_injected_corruption(capsys, damaged_halving_memo):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 2
    assert any(line.startswith("FAIL 03") for line in out.splitlines())


def test_selftest_refuses_bad_bases_before_any_criterion(capsys):
    # the criteria fix their own systems, so selftest takes no --p or --q at
    # all; --q abbreviates --quick, which leaves --p 4 and 6 unrecognized
    code, out, err = run(capsys, "selftest", "--quick", "--p", "4", "--q", "6")
    assert (code, out) == (1, "")
    assert "error: unrecognized arguments: --p 4 6" in err


def test_main_resolves_the_system_once_for_each_handler(capsys, monkeypatch):
    handlers = [getattr(cli, name) for name in dir(cli) if name.startswith("_cmd_")]
    assert len(handlers) == 14
    assert not any(re.search(r"\b_system\(", inspect.getsource(fn)) for fn in handlers)
    assert inspect.getsource(cli).count("separators=") == 1  # in _print_json only
    seen = []
    monkeypatch.setattr(cli, "_cmd_count", lambda args, sys_: seen.append(sys_) or 0)
    assert run(capsys, "count", "--u", "5", "--p", "3", "--q", "5")[0] == 0
    assert seen == [make_system(3, 5)]


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("q=5\n# comment\n")
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--u", "10")
    assert code == 0
    assert out == "2\n"  # (2,5): {8,2} and {10}... counted with q = 5
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--u", "10", "--q", "3")
    assert code == 0
    assert out == "3\n"  # explicit flag overrides the config value


def test_config_does_not_leak_between_calls(capsys, tmp_path):
    # the parser is cached once per process; a config's values go into argv only
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("q=5\n")
    assert run(capsys, "count", "--config", str(cfg), "--u", "10")[:2] == (0, "2\n")
    assert run(capsys, "count", "--u", "10")[:2] == (0, "3\n")
    assert run(capsys, "count", "--config", str(cfg), "--u", "10")[:2] == (0, "2\n")


def test_config_equals_spelling_is_read(capsys, tmp_path):
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("q=5\n")
    spaced = run(capsys, "count", "--config", str(cfg), "--u", "10")
    joined = run(capsys, "count", f"--config={cfg}", "--u", "10")
    assert joined == spaced == (0, "2\n", "")


@pytest.mark.parametrize("spelling", [("--conf", "{}"), ("--confi={}",), ("--c", "{}")],
                         ids=["conf", "confi-equals", "c"])
def test_config_abbreviation_is_read(capsys, tmp_path, spelling):
    # argparse takes these for --config; the file was once ignored, printing 3
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("q=5\n")
    argv = [arg.format(cfg) for arg in spelling]
    assert run(capsys, "count", *argv, "--u", "10") == (0, "2\n", "")


def test_ambiguous_config_abbreviation_is_a_usage_error(capsys, tmp_path):
    # encode has --codec too, so --c names no one option
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("q=5\n")
    code, out, err = run(capsys, "encode", "--c", str(cfg))
    assert (code, out) == (1, "")
    assert "ambiguous option: --c" in err


@pytest.mark.parametrize("line", ["seed=--5", "q=\u00b2", "seed=" + "7" * 5000],
                         ids=["doubled-sign", "superscript-digit", "past-the-digit-limit"])
def test_config_value_that_is_no_int_is_refused_by_argparse(capsys, tmp_path, line):
    # each once raised out of main with a traceback, before argparse saw it
    if len(line) > 100 and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int string limit")
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "sample", "--config", str(cfg), "--u", "10")
    assert (code, out) == (1, "")
    assert f"error: argument --{line.split('=')[0]}: " in err and "Traceback" not in err


def test_config_equals_without_path_is_a_bad_config(capsys):
    code, out, err = run(capsys, "count", "--config=", "--u", "10")
    assert (code, out) == (1, "")
    assert err.startswith("error: bad config")


def test_config_value_satisfies_a_required_option(capsys, tmp_path):
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("u=10\n")
    assert run(capsys, "count", "--config", str(cfg)) == (0, "3\n", "")


def test_config_value_goes_through_the_append_action(capsys, tmp_path):
    # the value once reached the scan as a bare int (TypeError), and with
    # --scan-q on the command line as a str to append to (AttributeError)
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("scan_q=5\n")
    argv = ("scan", "monotonicity", "--limit", "10", "--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert (code, [json.loads(line)["q"] for line in out.splitlines()], err) == (0, [5], "")
    code, out, err = run(capsys, *argv, "--scan-q", "7")
    assert (code, [json.loads(line)["q"] for line in out.splitlines()], err) == (0, [5, 7], "")


def test_config_cannot_set_a_flag(capsys, tmp_path):
    # "false" once turned --dot on, as did any value but 0 or an empty one
    cfg = tmp_path / "chainpart.cfg"
    cfg.write_text("dot=false\n")
    code, out, err = run(capsys, "graph", "--u", "5", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "error: argument --dot: " in err and "Traceback" not in err
