"""Source hygiene: every name a cpmfit module imports or defines is used."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cpmfit"


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """Imported names never loaded; `from __future__` and, with reexports, relative imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" \
                and not (reexports and node.level):
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    assert unused_imports("import csv\nimport io\nfrom .m import f, g\nio.StringIO(g)\n") \
        == ["csv", "f"]
    assert unused_imports("from __future__ import annotations\nfrom .m import f\n",
                          reexports=True) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def definitions(source: str) -> list[str]:
    """Module-level function, class and constant names of a module; dunders are exempt."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def dead_definitions(modules: dict, users: list, reexported: set) -> list[str]:
    """module.name of each definition in modules ({name: source}) that no source in users loads."""
    live = set(reexported)
    for tree in map(ast.parse, users):
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                live.add(n.id)
            elif isinstance(n, ast.Attribute):
                live.add(n.attr)
    return sorted(f"{mod}.{name}" for mod, source in modules.items()
                  for name in definitions(source) if name not in live)


def test_checker_finds_a_dead_definition():
    modules = {"a": "X = 1\nY = 2\ndef f():\n    return Y\nclass C: ...\ndef g(): ...\n"}
    users = [*modules.values(), "from a import g\ng()\n"]
    assert dead_definitions(modules, users, {"C"}) == ["a.X", "a.f"]


def test_no_dead_definitions():
    init = ast.parse((SRC / "__init__.py").read_text())
    reexported = {a.asname or a.name for node in init.body
                  if isinstance(node, ast.ImportFrom) for a in node.names}
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    users = [p.read_text() for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_definitions(modules, users, reexported) == []
