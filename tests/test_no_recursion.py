"""No function in the package calls itself by name.

A recursive walk grows the Python stack with its depth, and on a huge U that
depth grows with log U; every walk in the package runs on an explicit stack
instead.  The check parses each module with ``ast`` and flags a call, inside a
function (nested definitions included), to a function of the same name, or to
the same method through ``self`` or ``cls``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainpart"


def self_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of every call inside a function to that function's own name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id == node.name:
                found.append((call.lineno, node.name))
            elif (isinstance(func, ast.Attribute) and func.attr == node.name
                  and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")):
                found.append((call.lineno, node.name))
    return sorted(found)


def test_self_calls_finds_direct_nested_and_method_recursion():
    source = (
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def g():\n"
        "    def inner(k):\n"
        "        yield from inner(k)\n"
        "    return inner\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.m()\n"
        "def h():\n"
        "    return f(1)\n"
    )
    assert self_calls(source) == [(2, "f"), (5, "inner"), (9, "m")]


def test_no_function_in_the_package_calls_itself():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line} {name}"
             for path in modules for line, name in self_calls(path.read_text())]
    assert found == []
