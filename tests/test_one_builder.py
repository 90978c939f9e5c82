"""Projectors are built, and subspace bases read off factors, only in ``linalg``.

``Projector`` performs no checks of its own, so the package builds one
in two ways only, both in ``linalg``: ``validate_projector`` for a matrix
from outside, ``projector_from_state`` for a rank-1 projector it builds.
A projector's range and kernel bases are built in ``linalg`` from its
factors' pivot columns (``EchelonFactor.pivots``); every other module
reads them through ``range_basis`` and ``kernel_basis``, which also
reject an empty range or kernel.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "propval"


def _uses_outside_linalg() -> list[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", "")) == "Projector":
                    found.append(f"{path.name}:{node.lineno}: Projector(...)")
            elif isinstance(node, ast.Attribute) and node.attr == "pivots":
                found.append(f"{path.name}:{node.lineno}: .pivots")
    return found


def test_only_linalg_builds_projectors_and_reads_factor_bases():
    assert (PACKAGE / "linalg.py").exists()
    assert _uses_outside_linalg() == []
