"""Every execution mode matches the committed golden manifest.

``tests/golden/manifest.json`` is the determinism oracle (see
``tools/golden.py``): one parametrized test per cell re-runs the cell
and compares its fingerprint — elapsed virtual time, answer, traffic,
app statistics, and the full non-``proc.*`` trace-record stream — plus
the pinned host-side ``sim_stats``.  CI runs this file under both
``REPRO_ENGINE`` tiers.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "golden", REPO / "tools" / "golden.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["golden"] = mod
    spec.loader.exec_module(mod)
    return mod


golden = _load()
MANIFEST = golden.load_manifest()


@pytest.mark.parametrize("cell", sorted(golden.CELLS))
def test_cell_matches_manifest(cell):
    assert golden.check_cell(cell, MANIFEST) == []


def test_manifest_has_no_stale_cells():
    assert set(MANIFEST["cells"]) == set(golden.CELLS)
    assert set(MANIFEST["sim_stats"]) == set(golden.CELLS)
