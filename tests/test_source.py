"""Source hygiene: every name a cpmfit module imports is used in that module."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cpmfit"


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
