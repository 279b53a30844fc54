"""Registry of the paper's figures: speedup curves and summary bars.

Each entry knows which application, variant, and problem size regenerate
a figure.  ``bench_params`` returns the problem sizes the benchmarks use:
paper sizes wherever a run costs seconds, and a documented scale-down for
ASP (n=3000 -> n=1000) whose event count would otherwise dominate the
benchmark suite; EXPERIMENTS.md discusses the effect of the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..apps import make_app, paper_params
from ..apps.base import AppResult
from ..network import DAS_PARAMS, NetworkParams
from .experiment import CurvePoint, speedup_curve
from .sweeps import ParallelRunner, RunSpec

__all__ = [
    "FigureSpec",
    "SPEEDUP_FIGURES",
    "bench_params",
    "figure_curves",
    "figure15_bars_many",
    "figure16_bars_many",
    "format_curves",
    "format_bars",
    "QUICK_CPUS",
]

#: The committed exhibits' sweep; ``PAPER_CPU_COUNTS`` adds the 1-CPU point.
QUICK_CPUS = (8, 16, 32, 60)


@dataclass(frozen=True)
class FigureSpec:
    figure: str
    app: str
    variant: str
    caption: str


#: Figures 1-14: per-application speedup curves, original and optimized.
SPEEDUP_FIGURES: Dict[str, FigureSpec] = {
    "fig1": FigureSpec("fig1", "water", "original", "Speedup of Water"),
    "fig2": FigureSpec("fig2", "water", "optimized",
                       "Speedup of optimized Water"),
    "fig3": FigureSpec("fig3", "tsp", "original", "Speedup of TSP"),
    "fig4": FigureSpec("fig4", "tsp", "optimized",
                       "Speedup of optimized TSP"),
    "fig5": FigureSpec("fig5", "asp", "original", "Speedup of ASP"),
    "fig6": FigureSpec("fig6", "asp", "optimized",
                       "Speedup of optimized ASP"),
    "fig7": FigureSpec("fig7", "atpg", "original", "Speedup of ATPG"),
    "fig8": FigureSpec("fig8", "atpg", "optimized",
                       "Speedup of optimized ATPG"),
    "fig9": FigureSpec("fig9", "ra", "original", "Speedup of RA"),
    "fig10": FigureSpec("fig10", "ra", "optimized",
                        "Speedup of optimized RA"),
    "fig11": FigureSpec("fig11", "ida", "original", "Speedup of IDA*"),
    "fig12": FigureSpec("fig12", "acp", "original", "Speedup of ACP"),
    "fig13": FigureSpec("fig13", "sor", "original", "Speedup of SOR"),
    "fig14": FigureSpec("fig14", "sor", "optimized",
                        "Speedup of optimized SOR"),
}


def bench_params(app_name: str) -> Any:
    """Problem sizes for the benchmark suite (see module docstring)."""
    params = paper_params(app_name)
    if app_name == "asp":
        # n=3000 would dominate the suite's wall time; n=1000 with the
        # per-element cost scaled 3x keeps the paper-size ratio of
        # compute-per-iteration to WAN-row-transfer-per-iteration, which
        # is the quantity Figures 5/6 exercise.
        return params.with_(n_vertices=1000, elem_cost=300e-9)
    return params


def figure_curves(figure: str,
                  cpu_counts: Sequence[int] = QUICK_CPUS,
                  cluster_counts: Sequence[int] = (1, 2, 4),
                  network: NetworkParams = DAS_PARAMS,
                  runner: Optional[ParallelRunner] = None,
                  ) -> Dict[int, List[CurvePoint]]:
    """Regenerate one of Figures 1-14 as speedup curves.

    ``runner`` parallelizes/caches the grid (a cached 1x1 baseline —
    e.g. from a sibling figure of the same app/variant — is not re-run).
    """
    spec = SPEEDUP_FIGURES[figure]
    app = make_app(spec.app)
    return speedup_curve(app, spec.variant, bench_params(spec.app),
                         cluster_counts=cluster_counts,
                         cpu_counts=cpu_counts, network=network,
                         runner=runner)


# ------------------------------------------------------- summary figures

#: Figure 15 bars as (label, variant-role, n_clusters, nodes_per_cluster);
#: the "opt" role degrades to "original" for apps with no optimized variant.
_FIG15_BARS = (
    ("lower_bound_15_1", "original", 1, 15),
    ("original_60_4", "original", 4, 15),
    ("optimized_60_4", "opt", 4, 15),
    ("upper_bound_60_1", "opt", 1, 60),
)

#: Figure 16 bars (two-cluster Delft + VU Amsterdam study).
_FIG16_BARS = (
    ("original_16_1", "original", 1, 16),
    ("original_32_2", "original", 2, 16),
    ("optimized_32_2", "opt", 2, 16),
    ("optimized_32_1", "opt", 1, 32),
)


def _bar_specs(app_name: str, bars, network: NetworkParams) -> List[RunSpec]:
    """The run grid behind one app's summary bars: each bar's run plus the
    two 1x1 baselines (appended last).  Duplicate specs (apps without an
    optimized variant) are deduplicated by the runner."""
    app = make_app(app_name)
    params = bench_params(app_name)
    opt = "optimized" if "optimized" in app.variants else "original"
    variant = {"original": "original", "opt": opt}
    specs = [RunSpec(app_name, variant[role], c, per, params, network=network)
             for (_label, role, c, per) in bars]
    specs.append(RunSpec(app_name, "original", 1, 1, params, network=network))
    specs.append(RunSpec(app_name, opt, 1, 1, params, network=network))
    return specs


def _bar_values(bars, results: List[AppResult]) -> Dict[str, float]:
    """Speedups for one app's bars from its grid results (baselines last)."""
    t1 = {"original": results[-2].elapsed, "opt": results[-1].elapsed}
    return {label: t1[role] / res.elapsed
            for (label, role, _c, _p), res in zip(bars, results)}


def _bars_many(app_names: Sequence[str], bars, network: NetworkParams,
               runner: Optional[ParallelRunner]) -> Dict[str, Dict[str, float]]:
    """One flat batch for several apps' bars — a single runner.run() call,
    so every independent simulation is available to the pool at once."""
    if runner is None:
        runner = ParallelRunner()
    per_app = [_bar_specs(name, bars, network) for name in app_names]
    flat = [spec for specs in per_app for spec in specs]
    results = runner.run(flat)
    out: Dict[str, Dict[str, float]] = {}
    pos = 0
    for name, specs in zip(app_names, per_app):
        chunk = results[pos:pos + len(specs)]
        pos += len(specs)
        out[name] = _bar_values(bars, chunk)
    return out


def figure15_bars_many(app_names: Sequence[str],
                       network: NetworkParams = DAS_PARAMS,
                       runner: Optional[ParallelRunner] = None
                       ) -> Dict[str, Dict[str, float]]:
    """Figure 15 bars for several apps as one parallel batch."""
    return _bars_many(app_names, _FIG15_BARS, network, runner)


def figure16_bars_many(app_names: Sequence[str],
                       network: NetworkParams = DAS_PARAMS,
                       runner: Optional[ParallelRunner] = None
                       ) -> Dict[str, Dict[str, float]]:
    """Figure 16 bars for several apps as one parallel batch."""
    return _bars_many(app_names, _FIG16_BARS, network, runner)


# ------------------------------------------------------------ formatting


def format_curves(figure: str, curves: Dict[int, List[CurvePoint]]) -> str:
    """Render speedup curves as the rows behind one of Figures 1-14."""
    spec = SPEEDUP_FIGURES[figure]
    lines = [f"{spec.figure}: {spec.caption} ({spec.app}/{spec.variant})",
             f"{'clusters':>8} {'cpus':>5} {'speedup':>8} {'elapsed(s)':>11}"]
    for n_clusters in sorted(curves):
        for pt in curves[n_clusters]:
            lines.append(f"{n_clusters:>8} {pt.n_cpus:>5} "
                         f"{pt.speedup:>8.1f} {pt.elapsed:>11.4f}")
    return "\n".join(lines)


def format_bars(title: str, bars: Dict[str, Dict[str, float]]) -> str:
    """Render Figure 15/16 style per-application bars."""
    keys = list(next(iter(bars.values())).keys())
    header = f"{'app':>6} " + " ".join(f"{k:>18}" for k in keys)
    lines = [title, header]
    for app_name, row in bars.items():
        lines.append(f"{app_name:>6} "
                     + " ".join(f"{row[k]:>18.1f}" for k in keys))
    return "\n".join(lines)
