"""Every paper exhibit, checked against its committed expectation.

One test per entry of ``repro.harness.claims.EXHIBITS``: the rendering
must equal ``benchmarks/out/<name>.txt`` byte for byte, every claim must
hold and every known deviation must still deviate.  All exhibits share
one runner and one temporary result cache, so a grid point two exhibits
have in common (Figure 15's 4x15 and 1x60 runs are also points of
Figures 1-14 and Tables 2, 4 and 5) is simulated once::

    PYTHONPATH=src REPRO_JOBS=2 python -m pytest -q benchmarks/bench_paper.py

Each test rewrites its ``benchmarks/out/`` file with what it computed,
so after a deliberate change of the model ``git diff benchmarks/out`` is
the review, and committing it is the refresh.
"""

import pytest

from repro.harness import ParallelRunner, ResultCache
from repro.harness.claims import EXHIBITS, OUT_DIR, evaluate


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return ParallelRunner(
        cache=ResultCache(str(tmp_path_factory.mktemp("paper-cache"))))


@pytest.mark.parametrize("name", list(EXHIBITS))
def test_exhibit(name, runner):
    text, problems = evaluate(EXHIBITS[name], runner, OUT_DIR)
    (OUT_DIR / f"{name}.txt").write_text(text)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("argv, name", [(["table", "4"], "table4_5"),
                                        (["figure", "fig15"], "fig15_summary")])
def test_cli_prints_the_exhibit(argv, name, runner, monkeypatch, capsys):
    """``repro table`` / ``repro figure fig15`` print the registry's
    entries — over the cache the exhibit tests above have warmed."""
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", runner.cache.root)
    assert main(argv) == 0
    assert capsys.readouterr().out == (OUT_DIR / f"{name}.txt").read_text()
