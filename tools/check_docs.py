#!/usr/bin/env python
"""Documentation consistency checker (run by the CI docs job).

The checks over the repo's markdown:

1. **Internal links** — every relative markdown link in the scanned
   files must point at a file or directory that exists in the repo.
2. **Trace-kind lockstep** — ``docs/TRACING.md`` and the machine
   registry ``repro.obs.schema.KINDS`` must agree in both directions:
   every registered kind is documented, and every kind-shaped name
   mentioned anywhere in the scanned docs is actually registered.
3. **Scenario-model lockstep** — ``docs/SCENARIOS.md`` and the
   scenario registry (``repro.scenario.IMPAIRMENTS`` / ``FAULTS``)
   must agree in both directions: every registered model has a
   ``### `model` `` reference section, and every such section names a
   registered model.  Each section's parameter table lists exactly the
   model's parameters, each with its registered default and range.
4. **Tuner-primitive lockstep** — ``docs/TUNING.md`` and the tuner
   registry (``repro.tuner.PRIMITIVES``) must agree the same two ways.

5. **Environment-variable lockstep** — the *Environment variables*
   table of ``docs/ARCHITECTURE.md`` and the ``REPRO_*`` literals under
   ``src/``, ``tools/`` and ``benchmarks/*.py`` must agree the same two
   ways: every variable the code names has a row, and every row names a
   variable the code reads.
6. **Process-level state lockstep** — the *Process-level state* table
   of ``docs/ARCHITECTURE.md`` and the memoised builders under
   ``src/repro`` (every ``functools.lru_cache`` / ``functools.cache``
   decorator, every module-level ``*_CACHE`` name) must agree the same
   two ways: state that outlives a run is declared, with its key and
   its bound, or it does not exist.
7. **Measured-block lockstep** — every ``<!-- out:NAME -->`` fenced
   block in the scanned docs is ``benchmarks/out/NAME.txt`` verbatim,
   and ``EXPERIMENTS.md`` includes every such file: the measured
   numbers of the paper exhibits exist once, as the committed
   expectations ``benchmarks/bench_paper.py`` checks (this check reads
   files only — it runs no simulation).
8. **Ledger-block lockstep** — every ``<!-- bench:SUITE -->`` fenced
   block in the scanned docs is the rendering of ``BENCH_SUITE.json``
   (:func:`render_ledger`), and ``EXPERIMENTS.md`` has a block for every
   ``BENCH_*.json`` at the repo root: each host-time baseline exists
   once, as the committed ledger ``repro bench --check`` reads (this
   check reads files only — it measures nothing).

Usage::

    python tools/check_docs.py                # exit 0 = consistent
    python tools/check_docs.py --render orca  # the bench:orca block

The kind-shaped pattern is ``<prefix>.<word>`` for the prefixes the
schema uses (proc, msg, link, gw, wan, rpc, seq, bcast, scn, sweep),
so module paths like ``repro.sim.engine`` never false-positive.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.schema import KINDS  # noqa: E402
from repro.scenario import FAULTS, IMPAIRMENTS  # noqa: E402
from repro.tuner import PRIMITIVES  # noqa: E402

#: Files scanned for links and kind mentions.
DOC_FILES = ["README.md", "ROADMAP.md", "DESIGN.md", "EXPERIMENTS.md"]

#: The only file that must mention *every* registered kind.
TRACING_DOC = "docs/TRACING.md"

#: The scenario reference manual, kept in lockstep with the model
#: registry: one ``### `model` `` section per registered model.
SCENARIOS_DOC = "docs/SCENARIOS.md"

#: The tuner reference manual, kept in lockstep with the primitive
#: registry: one ``### `primitive` `` section per registered primitive.
TUNING_DOC = "docs/TUNING.md"

#: Home of the one ``REPRO_*`` table.
ARCHITECTURE_DOC = "docs/ARCHITECTURE.md"

_ENV_NAME = re.compile(r"\bREPRO_[A-Z]+(?:_[A-Z]+)*\b")
_ENV_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.M)

#: The committed renderings of the paper exhibits, and the doc that must
#: include every one of them.
OUT_DIR = ROOT / "benchmarks" / "out"
EXPERIMENTS_DOC = "EXPERIMENTS.md"
_OUT_BLOCK = re.compile(
    r"^<!-- out:(\w+) -->\n```\n(.*?)```\n<!-- /out:\1 -->$", re.M | re.S)

#: The host-time ledgers ``BENCH_<suite>.json`` at the repo root, each
#: rendered once into a ``bench:<suite>`` block of the doc.
_BENCH_BLOCK = re.compile(
    r"^<!-- bench:(\w+) -->\n```\n(.*?)```\n<!-- /bench:\1 -->$", re.M | re.S)
_LEDGER_STAMP = ("bench", "python", "machine", "host_cores", "engine_tier")

#: The package whose process-level state the table declares.
PACKAGE = ROOT / "src" / "repro"
_CACHE_ROW = re.compile(r"^\| `(repro\.[A-Za-z_][\w.]*)` \|", re.M)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_KIND_PREFIXES = sorted({name.split(".", 1)[0] for name in KINDS})
_KIND = re.compile(
    r"\b(?:" + "|".join(_KIND_PREFIXES) + r")\.[a-z_]+\b")


def doc_paths() -> list:
    paths = [ROOT / name for name in DOC_FILES]
    paths += sorted((ROOT / "docs").glob("*.md"))
    return [p for p in paths if p.exists()]


def _rel(path: Path) -> str:
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def check_links(path: Path, text: str) -> list:
    """Relative links must resolve to existing files/directories."""
    problems = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(f"{_rel(path)}: broken link -> {target}")
    return problems


def check_kinds(texts: dict) -> list:
    """Both directions of the docs <-> schema kind lockstep."""
    problems = []
    mentioned_anywhere = set()
    for rel, text in texts.items():
        mentions = set(_KIND.findall(text))
        mentioned_anywhere |= mentions
        for name in sorted(mentions - set(KINDS)):
            problems.append(
                f"{rel}: mentions unregistered trace kind {name!r} "
                f"(not in repro.obs.schema.KINDS)")
    tracing = set(_KIND.findall(texts.get(TRACING_DOC, "")))
    for name in sorted(set(KINDS) - tracing):
        problems.append(
            f"{TRACING_DOC}: registered trace kind {name!r} is "
            f"undocumented")
    return problems


_MODEL_HEADING = re.compile(r"^###\s+`([a-z_]+)`", re.M)


def check_scenario_models(texts: dict) -> list:
    """Both directions of the docs <-> scenario-registry lockstep."""
    problems = []
    text = texts.get(SCENARIOS_DOC)
    if text is None:
        return [f"{SCENARIOS_DOC}: missing"]
    documented = set(_MODEL_HEADING.findall(text))
    registered = set(IMPAIRMENTS) | set(FAULTS)
    for name in sorted(registered - documented):
        problems.append(
            f"{SCENARIOS_DOC}: registered scenario model {name!r} has no "
            f"### `{name}` reference section")
    for name in sorted(documented - registered):
        problems.append(
            f"{SCENARIOS_DOC}: documents model {name!r} which is not "
            f"registered in repro.scenario.models")
    return problems


_PARAM_ROW = re.compile(r"^\|\s*`([a-z_]+)`\s*\|\s*([^|]+?)\s*\|"
                        r"\s*([^|]+?)\s*\|", re.M)


def check_scenario_params(texts: dict) -> list:
    """Each model section's parameter table lists exactly the model's
    registered parameters, with their registered defaults and ranges."""
    text = texts.get(SCENARIOS_DOC)
    if text is None:
        return []  # check_scenario_models reports the missing file
    problems = []
    parts = _MODEL_HEADING.split(text)
    for name, body in zip(parts[1::2], parts[2::2]):
        spec = IMPAIRMENTS.get(name) or FAULTS.get(name)
        if spec is None:
            continue
        section = re.split(r"^#", body, flags=re.M)[0]
        rows = {m.group(1): (m.group(2), m.group(3))
                for m in _PARAM_ROW.finditer(section)}
        for param, default, interval, _unit in spec.params:
            row = rows.pop(param, None)
            if row is None:
                problems.append(f"{SCENARIOS_DOC}: `{name}` has no row for "
                                f"its parameter {param!r}")
            elif float(row[0]) != default or row[1] != interval:
                problems.append(
                    f"{SCENARIOS_DOC}: `{name}.{param}` documented as "
                    f"{row[0]} in {row[1]}; registered {default} in "
                    f"{interval}")
        for param in sorted(rows):
            problems.append(f"{SCENARIOS_DOC}: `{name}` documents "
                            f"parameter {param!r}, which it does not take")
    return problems


def check_tuner_primitives(texts: dict) -> list:
    """Both directions of the docs <-> tuner-registry lockstep."""
    problems = []
    text = texts.get(TUNING_DOC)
    if text is None:
        return [f"{TUNING_DOC}: missing"]
    documented = set(_MODEL_HEADING.findall(text))
    registered = set(PRIMITIVES)
    for name in sorted(registered - documented):
        problems.append(
            f"{TUNING_DOC}: registered tuner primitive {name!r} has no "
            f"### `{name}` reference section")
    for name in sorted(documented - registered):
        problems.append(
            f"{TUNING_DOC}: documents primitive {name!r} which is not "
            f"registered in repro.tuner.primitives")
    return problems


def env_sources() -> list:
    """The files whose ``REPRO_*`` literals the table must cover: the
    package, the tools and the benchmark scripts (``benchmarks/e2e`` is
    the frozen instrument, hermetic by construction)."""
    sources = [p for p in (ROOT / "src").rglob("*")
               if p.suffix in (".py", ".c")]
    sources += (ROOT / "tools").glob("*.py")
    sources += (ROOT / "benchmarks").glob("*.py")
    return sources


def check_env_vars(texts: dict) -> list:
    """Both directions of the docs <-> ``REPRO_*`` literal lockstep."""
    text = texts.get(ARCHITECTURE_DOC)
    if text is None:
        return [f"{ARCHITECTURE_DOC}: missing"]
    documented = set(_ENV_ROW.findall(text))
    read = set()
    for path in env_sources():
        read |= set(_ENV_NAME.findall(path.read_text(encoding="utf-8")))
    problems = [
        f"{ARCHITECTURE_DOC}: {name} is named in the code but has no row "
        f"in the Environment variables table"
        for name in sorted(read - documented)]
    problems += [
        f"{ARCHITECTURE_DOC}: the Environment variables table documents "
        f"{name}, which nothing under src/, tools/ or benchmarks/ names"
        for name in sorted(documented - read)]
    return problems


def check_out_blocks(texts: dict, out_dir: Path) -> list:
    """Tagged measured blocks are their ``benchmarks/out`` files."""
    problems = []
    included = set()
    for rel, text in texts.items():
        for name, body in _OUT_BLOCK.findall(text):
            path = out_dir / f"{name}.txt"
            if not path.exists():
                problems.append(f"{rel}: block out:{name} names no file "
                                f"under {_rel(out_dir)}")
            elif body != path.read_text(encoding="utf-8"):
                problems.append(f"{rel}: block out:{name} differs from "
                                f"{_rel(path)}")
            if rel == EXPERIMENTS_DOC:
                included.add(name)
    problems += [
        f"{EXPERIMENTS_DOC}: {_rel(path)} is not included as an "
        f"out:{path.stem} block"
        for path in sorted(out_dir.glob("*.txt"))
        if path.stem not in included]
    return problems


def render_ledger(ledger: dict) -> str:
    """The body of a ``bench:`` block: the stamp on one line, then one
    row per ``results`` key in file order and one per ``info`` key,
    marked ``(info)``; every value as the JSON holds it, unrounded."""
    rows = [(key, json.dumps(value), "")
            for key, value in ledger["results"].items()]
    rows += [(key, json.dumps(value), "  (info)")
             for key, value in ledger["info"].items()]
    key_w = max(len(key) for key, _, _ in rows)
    value_w = max(len(value) for _, value, _ in rows)
    lines = ["  ".join(f"{key}: {ledger[key]}" for key in _LEDGER_STAMP)]
    lines += [f"{key:<{key_w}}  {value:>{value_w}}{mark}"
              for key, value, mark in rows]
    return "\n".join(lines) + "\n"


def check_bench_blocks(texts: dict) -> list:
    """Tagged ledger blocks are the renderings of their ``BENCH_*.json``."""
    problems = []
    included = set()
    for rel, text in texts.items():
        for suite, body in _BENCH_BLOCK.findall(text):
            path = ROOT / f"BENCH_{suite}.json"
            if not path.exists():
                problems.append(f"{rel}: block bench:{suite} names no "
                                f"{path.name}")
            elif body != render_ledger(
                    json.loads(path.read_text(encoding="utf-8"))):
                problems.append(f"{rel}: block bench:{suite} differs from "
                                f"the rendering of {path.name}")
            if rel == EXPERIMENTS_DOC:
                included.add(suite)
    problems += [
        f"{EXPERIMENTS_DOC}: {path.name} has no bench:{suite} block"
        for path in sorted(ROOT.glob("BENCH_*.json"))
        if (suite := path.stem[len("BENCH_"):]) not in included]
    return problems


def _memoised(package: Path) -> set:
    """Dotted names of everything under ``package`` that keeps values
    across runs: ``lru_cache``/``cache``-decorated functions and
    module-level ``*_CACHE`` names."""
    found = set()
    for path in sorted(package.rglob("*.py")):
        module = ".".join(
            path.relative_to(package.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    name = dec.attr if isinstance(dec, ast.Attribute) \
                        else getattr(dec, "id", None)
                    if name in ("lru_cache", "cache"):
                        found.add(f"{module}.{node.name}")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id.endswith("_CACHE"):
                    found.add(f"{module}.{target.id}")
    return found


def check_process_caches(texts: dict, package: Path = PACKAGE) -> list:
    """Both directions of the docs <-> memoised-builder lockstep."""
    text = texts.get(ARCHITECTURE_DOC)
    if text is None:
        return [f"{ARCHITECTURE_DOC}: missing"]
    documented = set(_CACHE_ROW.findall(text))
    present = _memoised(package)
    problems = [
        f"{ARCHITECTURE_DOC}: {name} keeps values across runs but has no "
        f"row in the Process-level state table"
        for name in sorted(present - documented)]
    problems += [
        f"{ARCHITECTURE_DOC}: the Process-level state table documents "
        f"{name}, which is not a memoised builder under src/repro"
        for name in sorted(documented - present)]
    return problems


def main() -> int:
    texts = {}
    problems = []
    for path in doc_paths():
        text = path.read_text(encoding="utf-8")
        texts[str(path.relative_to(ROOT))] = text
        problems += check_links(path, text)
    if TRACING_DOC not in texts:
        problems.append(f"{TRACING_DOC}: missing")
    problems += check_kinds(texts)
    problems += check_scenario_models(texts)
    problems += check_scenario_params(texts)
    problems += check_tuner_primitives(texts)
    problems += check_env_vars(texts)
    problems += check_process_caches(texts)
    problems += check_out_blocks(texts, OUT_DIR)
    problems += check_bench_blocks(texts)
    if problems:
        for problem in problems:
            print(problem)
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    print(f"docs ok: {len(texts)} files, {len(KINDS)} trace kinds, "
          f"{len(IMPAIRMENTS) + len(FAULTS)} scenario models and "
          f"{len(PRIMITIVES)} tuner primitives in lockstep")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Check the docs against the code and the committed "
                    "files.")
    parser.add_argument("--render", metavar="SUITE",
                        help="print the bench:SUITE block of "
                             "BENCH_SUITE.json and exit")
    args = parser.parse_args()
    if args.render is None:
        sys.exit(main())
    ledger = ROOT / f"BENCH_{args.render}.json"
    if not ledger.exists():
        parser.error(f"no {ledger.name} at the repo root")
    print(f"<!-- bench:{args.render} -->\n```\n"
          f"{render_ledger(json.loads(ledger.read_text(encoding='utf-8')))}"
          f"```\n<!-- /bench:{args.render} -->")
