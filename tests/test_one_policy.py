"""The tolerance policy's two formulas are written only in ``numerics``.

Every truth value comes down to tolerance decisions: a pivot or anchor
counts as nonzero, a cross product counts as equal.
``TolerancePolicy.bound(size)`` (``abs_eps + rel_eps * size``) and
``TolerancePolicy.threshold(scale)`` (``abs_eps * scale``) state them;
every other module asks the policy through these methods and reads
neither field, so a change to the policy reaches every decision.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "propval"

FIELDS = {"abs_eps", "rel_eps"}


def _field_reads_outside_numerics() -> list[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in FIELDS:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    return found


def test_only_numerics_reads_the_tolerance_fields():
    assert (PACKAGE / "numerics.py").exists()
    assert _field_reads_outside_numerics() == []
