"""No unused import and no top-level definition that nothing names.

Code that nothing reaches still has to be read, kept and tested.  The check
parses each module of the package with ``ast`` and flags:

* an import whose bound name no other node of its module reads, except in
  ``__init__``, whose imports are the package's exports, and ``__future__``;
* a module-level function or class whose name appears on no line of the
  package outside its own definition, as a name, an attribute or an
  imported name (an ``__init__`` export counts).  The ``_cmd_<name>``
  handlers of ``cli`` are exempt, because ``main`` dispatches them by name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainpart"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import whose bound name the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return sorted(found)


def unnamed_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every top-level function or class of ``sources``
    (module name to text) that no line outside its own definition names."""
    definitions, references = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.lineno, node.end_lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                references += [(module, node.lineno, alias.name) for alias in node.names]
    found = []
    for module, start, end, name in definitions:
        if module == "cli" and name.startswith("_cmd_"):
            continue
        if not any(ref == name and not (where == module and start <= line <= end)
                   for where, line, ref in references):
            found.append((module, start, name))
    return sorted(found)


def test_unused_imports_finds_plain_from_and_aliased_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from typing import Callable, Iterator\n"
        "import json as js\n"
        "def f(it: Iterator) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(4, "Callable"), (5, "js")]


def test_unnamed_definitions_ignore_self_references_and_count_exports():
    sources = {
        "mod": (
            "def used():\n"
            "    return 1\n"
            "def only_self(n):\n"
            "    return only_self\n"
            "class Exported:\n"
            "    pass\n"
            "def caller():\n"
            "    return used()\n"
        ),
        "__init__": "from .mod import Exported, caller\n",
        "cli": "def _cmd_run(args):\n    return 0\ndef _unused():\n    pass\n",
    }
    assert unnamed_definitions(sources) == [("cli", 3, "_unused"), ("mod", 3, "only_self")]


def test_no_module_imports_what_it_does_not_use():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    found = [f"{path.name}:{line} {name}"
             for path in modules for line, name in unused_imports(path.read_text())]
    assert found == []


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert [f"{module}.py:{line} {name}"
            for module, line, name in unnamed_definitions(sources)] == []
