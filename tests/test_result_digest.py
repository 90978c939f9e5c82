"""``tools/result_digest.py`` prints one reproducible line per family."""

import importlib.util
from pathlib import Path

import propval

TOOL = Path(__file__).resolve().parents[1] / "tools" / "result_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("result_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_fixtures_family_digests_the_same_twice():
    tool = _tool()
    first = tool.family_line(propval, "fixtures")
    assert tool.family_line(propval, "fixtures") == first
    name, count, contract_label, contract, bits_label, bits = first.split()
    assert (name, contract_label, bits_label) == ("fixtures", "contract", "bits")
    assert int(count) > 0 and len(contract) == len(bits) == 64
