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


# What the numerical contract fixes, per family.  A change that moves one
# edits its line here and says why; the bits digests may move freely.
CONTRACT_DIGESTS = {
    "random_states": "766fedce25a3869bf2cff748ebfb1bea4a8745beda89293902e4cb34cd9399aa",
    "qr_projectors": "c078aed734c942cc5db88ccb1d8f24343eb0dcdfe9f5d9a2b71dadcded206b46",
    "fixtures": "11428f9d4b97506da5ab9c3358d54728141b128fd767c6f66baddb3b73a377a9",
    "bare_stacks": "822614e7321ccf2c71a72b69f02e4baa7aa8b3b8e988511a978ee3f4541759e8",
    "lattice": "7ffe298b01131e5ba859508eef220e1efce80960aeef29dd579124e8be4ae66a",
}


def test_every_family_keeps_its_contract_digest():
    tool = _tool()
    got = {
        name: tool.family_line(propval, name).split()[3] for name in tool.FAMILIES
    }
    assert got == CONTRACT_DIGESTS
