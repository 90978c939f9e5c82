"""Every private module-level name in the package is used by the package.

A private function, class or constant that no code in ``src/`` reads is
dead: the tests and ``perfbench/`` may still call it, but nothing they
measure or check runs through it.  A reference is a name read (``f()``,
``x = _C``) or an attribute (``linalg._f``) anywhere in ``src/`` outside
the statement that defines the name; an import alone is not a use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _private_definitions_and_reads():
    private, reads = [], []  # (path, name, stmt); (stmt, names read)
    for path in sorted(SRC.rglob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            reads.append((stmt, _read(stmt)))
            for name in _defined(stmt):
                if name.startswith("_") and not name.endswith("__"):
                    private.append((path.relative_to(SRC), name, stmt))
    return private, reads


def test_every_private_module_level_name_is_read_in_src():
    private, reads = _private_definitions_and_reads()
    assert private
    orphans = [
        f"{path}: {name}"
        for path, name, home in private
        if not any(name in names for stmt, names in reads if stmt is not home)
    ]
    assert not orphans, orphans
