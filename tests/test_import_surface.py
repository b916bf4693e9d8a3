"""What each entry point loads of the package, each in a fresh interpreter.

The exports of ``chainpart`` load on first use and each CLI command imports
the modules it runs, so a one-command process compiles only what it needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``chainpart.__all__`` as it was when every export loaded with the package.
EXPORTS = [
    "BudgetError", "CaseTableCounter", "ChainBreakError", "ChainCost", "ChainPartError",
    "CountTable", "DirectSumCounter", "DuplicatePartError", "GrowthExponents", "HalvingCounter",
    "InvalidSystemError", "InvariantViolationError", "MalformedWordError", "NonSmoothPartError",
    "OmegaSet", "PQSystem", "Partition", "PartitionError", "ResidueEnumerator", "ShortestTable",
    "SplitEnumerator", "TreeWord", "UnreachableSumError", "analytics", "binary_partition",
    "brute_force_enumerate", "build_graph", "chain_census", "chain_cost", "chain_pow",
    "check_growth_bound", "check_local_monotonicity", "classify_small_counts", "codec",
    "constant_upper_bound", "core", "counting", "decomposition", "digits_zero_one",
    "doubling_witnesses", "enumeration", "estimate_growth_constant", "from_json", "graph23",
    "is_valid_lattice_word", "lattice_decode", "lattice_encode", "make_counter", "make_system",
    "map_p", "map_q", "max_count_jumps", "neighbors", "random_walk", "reduce_to_binary",
    "sample_uniform", "shortest", "solve_exponents", "to_json", "tree_decode", "tree_encode",
    "validate", "value",
]

LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'chainpart')"


def fresh(code: str):
    """The JSON that ``code`` prints last, run by a new interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", "import sys, json\n" + code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_no_module_or_command_loads_dataclasses_or_inspect():
    # dataclasses imports inspect, and with it ast, dis and tokenize, which
    # cost a command more to import than the package itself
    names = sorted(path.stem for path in (SRC / "chainpart").glob("*.py"))
    loaded = fresh("import contextlib, importlib, io\n"
                   f"for name in {names!r}:\n"
                   "    importlib.import_module('chainpart.' + name)\n"
                   "from chainpart import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    rcs = [cli.main(argv) for argv in (\n"
                   "        ['enumerate', '--u', '27'], ['graph', '--u', '27'],\n"
                   "        ['sigma', '--u', '19', '--witness'], ['scan', 'maxw', '--limit', '100'])]\n"
                   "print(json.dumps([rcs, [m for m in ('dataclasses', 'inspect') if m in sys.modules]]))")
    assert loaded == [[0, 0, 0, 0], []]


def test_importing_the_cli_loads_only_core():
    assert fresh(f"import chainpart.cli\nprint(json.dumps({LOADED}))") == [
        "chainpart", "chainpart.cli", "chainpart.core"]


def test_count_loads_the_counting_modules_alone():
    loaded = fresh("from chainpart import cli\n"
                   "import contextlib, io\n"
                   "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                   "    rc = cli.main(['count', '--u', '27'])\n"
                   f"print(json.dumps([rc, out.getvalue(), {LOADED}]))")
    assert loaded == [0, "7\n", ["chainpart", "chainpart.cli", "chainpart.core",
                                  "chainpart.counting", "chainpart.decomposition"]]


#: What every analytics command loads: the dense counts, never an enumerator.
ANALYTICS = ["chainpart", "chainpart.analytics", "chainpart.cli", "chainpart.core",
             "chainpart.counting", "chainpart.decomposition"]


@pytest.mark.parametrize("argv, modules", [
    (["walk", "--u", "100", "--steps", "5", "--seed", "1"],
     ["chainpart", "chainpart.cli", "chainpart.codec", "chainpart.core", "chainpart.graph23"]),
    (["scan", "maxw", "--limit", "100"], ANALYTICS),
    (["sumfn", "--xmax", "100"], ANALYTICS),
    (["alpha"], ANALYTICS),
], ids=["walk", "scan-maxw", "sumfn", "alpha"])
def test_walk_and_the_analytics_commands_load_no_enumerator(argv, modules):
    loaded = fresh("from chainpart import cli\n"
                   "import contextlib, io\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    rc = cli.main({argv!r})\n"
                   f"print(json.dumps([rc, {LOADED}]))")
    assert loaded == [0, modules]


@pytest.mark.parametrize("argv, stdin, out", [
    (["encode", "--codec", "tree"], "18 1\n", "1332\n"),
    (["decode", "--codec", "tree"], "1332\n",
     '{"p":2,"q":3,"parts":[[1,2],[0,0]],"sum":"19","values":["18","1"]}\n'),
], ids=["encode", "decode"])
def test_tree_codec_commands_load_the_codec_alone(argv, stdin, out):
    loaded = fresh("from chainpart import cli\n"
                   "import contextlib, io\n"
                   f"sys.stdin = io.StringIO({stdin!r})\n"
                   "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                   f"    rc = cli.main({argv!r})\n"
                   f"print(json.dumps([rc, out.getvalue(), {LOADED}]))")
    assert loaded == [0, out, ["chainpart", "chainpart.cli", "chainpart.codec", "chainpart.core"]]


def test_a_submodule_export_loads_that_module_alone():
    assert fresh(f"from chainpart import core\nprint(json.dumps({LOADED}))") == [
        "chainpart", "chainpart.core"]


def test_all_is_the_export_list_and_lists_dir():
    assert fresh("import chainpart\nprint(json.dumps(chainpart.__all__))") == EXPORTS
    assert set(EXPORTS) <= set(fresh("import chainpart\nprint(json.dumps(dir(chainpart)))"))


def test_every_export_is_its_modules_object():
    check = ("import chainpart, types\n"
             "def home(name, obj):\n"
             "    if isinstance(obj, types.ModuleType):\n"
             "        return sys.modules['chainpart.' + name]\n"
             "    return getattr(sys.modules[obj.__module__], name)\n"
             "print(json.dumps([name for name in chainpart.__all__\n"
             "                  if home(name, getattr(chainpart, name)) is not getattr(chainpart, name)]))")
    assert fresh(check) == []


def test_star_import_binds_every_export():
    check = ("import chainpart\n"
             "names = {}\n"
             "exec('from chainpart import *', names)\n"
             "print(json.dumps([name for name in chainpart.__all__\n"
             "                  if names.get(name) is not getattr(chainpart, name)]))")
    assert fresh(check) == []


def test_an_unknown_name_is_an_attribute_error():
    check = ("import chainpart\n"
             "try:\n"
             "    chainpart.no_such_export\n"
             "except AttributeError as exc:\n"
             f"    print(json.dumps([str(exc), {LOADED}]))")
    assert fresh(check) == ["module 'chainpart' has no attribute 'no_such_export'", ["chainpart"]]
