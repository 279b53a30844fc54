"""The claims registry (repro.harness.claims): its structure, its
evaluator, and the exhibits cheap enough for tier-1 checked against
their committed expectations.  ``benchmarks/bench_paper.py`` checks all
thirty."""

import shutil
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.harness import ParallelRunner, ResultCache
from repro.harness.claims import EXHIBITS, OUT_DIR, Claim, evaluate

#: The exhibits that cost under ~2.5 s each, cold and serial (~17 s in
#: all on a 2-core host); the other seventeen take 3-23 s apiece.
TIER1 = (
    "table1",
    "fig1_water_original", "fig2_water_optimized",
    "fig3_tsp_original", "fig4_tsp_optimized",
    "fig8_atpg_optimized", "fig11_ida_steals",
    "sensitivity_atpg",
    "ablation_dedicated_seq", "ablation_combining", "ablation_tsp_grain",
    "ablation_steal", "ablation_gateway",
)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    """One serial runner and result cache for the module: exhibits of
    one application share their one-processor baselines."""
    return ParallelRunner(
        jobs=1, cache=ResultCache(str(tmp_path_factory.mktemp("claims"))))


# --------------------------------------------------------------- structure


def test_exhibits_and_expectations_are_in_bijection():
    assert sorted(EXHIBITS) == sorted(p.stem for p in OUT_DIR.glob("*.txt"))
    assert all(name == ex.name for name, ex in EXHIBITS.items())
    assert set(TIER1) <= set(EXHIBITS)


def test_claims_are_named_referenced_and_reasoned():
    claims = [c for ex in EXHIBITS.values() for c in ex.claims]
    names = [c.name for c in claims]
    assert len(names) == len(set(names))
    assert all(ex.claims for ex in EXHIBITS.values())
    assert all(c.paper_ref.strip() for c in claims)
    deviations = [c for c in claims if c.deviates is not None]
    assert all(c.deviates.strip() for c in deviations)
    assert sorted(c.name for c in deviations) == [
        "fig12/multicluster-at-least-single-cluster",
        "fig14/speedup-near-30",
        "fig15/ida-optimized-not-below-original"]


# --------------------------------------------------------------- evaluator


@pytest.mark.parametrize("name", TIER1)
def test_exhibit_matches_its_expectation(name, runner):
    _text, problems = evaluate(EXHIBITS[name], runner, OUT_DIR)
    assert not problems, "\n".join(problems)


def test_flipped_digit_in_an_expectation_fails_with_a_diff(tmp_path, runner):
    """Mutation: one digit changed in a copy of the expectation."""
    good = (OUT_DIR / "table1.txt").read_text()
    assert "42.0us" in good
    (tmp_path / "table1.txt").write_text(good.replace("42.0us", "43.0us"))
    text, problems = evaluate(EXHIBITS["table1"], runner, tmp_path)
    assert text == good
    assert len(problems) == 1
    assert "-  RPC (non-replicated)     43.0us" in problems[0]
    assert "+  RPC (non-replicated)     42.0us" in problems[0]


def test_deviation_that_starts_to_hold_fails(tmp_path, runner):
    """Mutation: a known deviation whose predicate turns true is a
    problem (the model changed under it); one that stays false is not."""
    shutil.copy(OUT_DIR / "table1.txt", tmp_path)
    table1 = EXHIBITS["table1"]
    still = Claim("t/still-deviates", "Table 1", lambda d: False,
                  deviates="a reason")
    fixed = replace(still, name="t/silently-fixed", holds=lambda d: True)
    broken = Claim("t/stopped-holding", "Table 1", lambda d: False)
    _text, problems = evaluate(replace(table1, claims=(still,)), runner,
                               tmp_path)
    assert problems == []
    _text, problems = evaluate(replace(table1, claims=(fixed, broken)),
                               runner, tmp_path)
    assert problems == [
        "known deviation t/silently-fixed (Table 1) now holds — it was: "
        "a reason",
        "claim t/stopped-holding (Table 1) no longer holds"]


def test_cli_table_prints_the_registry_entry(capsys):
    """``repro table`` renders through ``EXHIBITS`` (``table 4`` and
    ``figure fig15`` are checked the same way, over a warm cache, in
    ``benchmarks/bench_paper.py``)."""
    assert main(["table", "1"]) == 0
    assert capsys.readouterr().out == (OUT_DIR / "table1.txt").read_text()
