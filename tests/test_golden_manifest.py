"""Every execution mode matches the committed golden manifest.

``tests/golden/manifest.json`` is the determinism oracle (see
``tools/golden.py``): one parametrized test per cell re-runs the cell
and compares its fingerprint — elapsed virtual time, answer, traffic,
app statistics, and the full non-``proc.*`` trace-record stream — plus
the pinned host-side ``sim_stats``.  A cell the partitioned engine can
run is also re-run with ``pdes="on"`` and held to the same fingerprint
(emission order aside; ``tools/golden.py`` names the exemptions).  CI
runs this file under both ``REPRO_ENGINE`` tiers.
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
    assert set(golden._TIED) <= golden._PARTITIONED


def test_one_remote_cluster_makes_every_shape_the_same_tree():
    """With one remote cluster, ``flat``, ``chain`` and ``binomial`` are
    the same tree, so under contention (five sources at tied instants,
    p2p traffic alongside) they give the same run, down to the order of
    the trace records and the dispatch counters."""
    runs = {shape: golden._concurrent_cell(None, (shape,), n_clusters=2,
                                           p2p=True)
            for shape in ("flat", "chain", "binomial")}
    assert runs["chain"] == runs["flat"] == runs["binomial"]


def test_write_adds_cells_but_refuses_to_rebless(tmp_path, monkeypatch,
                                                 capsys):
    """``--write`` never silently re-blesses drift: a cell the manifest
    holds with another fingerprint is refused (and named) until
    ``--force``; absent cells are added."""
    import json

    names = ["bb/fixed/pb", "bb/fixed/bb"]
    drifted = {"version": 1, "cells": {}, "sim_stats": {}}
    drifted["cells"][names[0]] = dict(MANIFEST["cells"][names[0]], end="0.5")
    drifted["sim_stats"][names[0]] = MANIFEST["sim_stats"][names[0]]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(drifted))
    monkeypatch.setattr(golden, "MANIFEST", str(path))

    assert golden.write_manifest(names) == 1
    assert "REFUSED bb/fixed/pb" in capsys.readouterr().err
    written = json.loads(path.read_text())
    assert written["cells"][names[0]]["end"] == "0.5"
    assert written["cells"][names[1]] == MANIFEST["cells"][names[1]]

    assert golden.write_manifest(names, force=True) == 0
    written = json.loads(path.read_text())
    assert written["cells"][names[0]] == MANIFEST["cells"][names[0]]
    out = capsys.readouterr().out.splitlines()
    end = MANIFEST["cells"][names[0]]["end"]
    assert out == [f"re-blessed {names[0]}: end {end!r} != manifest '0.5'",
                   "1 re-blessed, 1 unchanged"]
