"""No component writes the process environment behind a result.

A sweep point's result may depend only on its function, its params and
the code, which is exactly what the point cache and the serve store key
on.  An ``os.environ`` write is ambient state that those keys cannot
see (and that the service's pool threads would share), so a write site
under ``src/repro`` must be listed here with its reason (none is).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (file relative to src/repro, enclosing function) -> why it may write.
ALLOWED: dict[tuple[str, str], str] = {}

_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear",
             "__setitem__", "__delitem__"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` or a bare ``environ`` (``from os import environ``)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _writes(node: ast.AST) -> bool:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
            else [node.target]
        return any(isinstance(t, ast.Subscript) and _is_environ(t.value)
                   for t in targets)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr in _MUTATORS and _is_environ(func.value):
            return True
        return (func.attr in {"putenv", "unsetenv"}
                and isinstance(func.value, ast.Name)
                and func.value.id == "os")
    return False


def environ_write_sites() -> dict[tuple[str, str], list[int]]:
    """``{(file, enclosing function): [line, ...]}`` of every write."""
    sites: dict[tuple[str, str], list[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        rel = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, scope: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if _writes(node):
                sites.setdefault((rel, scope), []).append(node.lineno)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "<module>")
    return sites


def test_only_listed_sites_write_os_environ():
    unlisted = {site: lines for site, lines in environ_write_sites().items()
                if site not in ALLOWED}
    assert not unlisted, (
        "os.environ is written outside the allowed sites (state the"
        f" setting in the point's params instead): {unlisted}")


def test_scanner_sees_every_write_form():
    source = (
        "import os\n"
        "from os import environ\n"
        "def f():\n"
        "    os.environ['A'] = '1'\n"
        "    environ['B'] += '1'\n"
        "    del os.environ['A']\n"
        "    os.environ.update({'A': '1'})\n"
        "    os.environ.pop('A', None)\n"
        "    os.environ.setdefault('A', '1')\n"
        "    os.putenv('A', '1')\n"
        "    os.unsetenv('A')\n"
        "    os.environ.get('A')\n"
        "    x = os.environ['A']\n")
    hits = [node.lineno for node in ast.walk(ast.parse(source))
            if _writes(node)]
    assert sorted(hits) == [4, 5, 6, 7, 8, 9, 10, 11]
