"""CLI stdout and exit codes, byte for byte, on a fixed argv corpus.

``cli_golden.json`` holds one case per command line: argv, stdin, the exit
code and stdout.  It covers every subcommand, so a refactor behind the CLI
must leave this test green unchanged.  When an output change is intended,
re-record the outputs for the same argv list with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from chainpart import cli

CORPUS = Path(__file__).with_name("cli_golden.json")


def run_case(argv: list[str], stdin: str) -> tuple[int, str]:
    """Run ``cli.main`` in process; return (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


CASES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_cli_golden(case):
    code, out = run_case(case["argv"], case["stdin"])
    assert code == case["exit"]
    assert out == case["stdout"]


if __name__ == "__main__":
    for case in CASES:
        case["exit"], case["stdout"] = run_case(case["argv"], case["stdin"])
    CORPUS.write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")
