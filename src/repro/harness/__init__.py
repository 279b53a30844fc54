"""Experiment harness: runners and the paper's figure/table registry."""

from .experiment import PAPER_CPU_COUNTS, CurvePoint, run_app, speedup_curve
from .plot import ascii_speedup_plot
from .sweeps import (ParallelRunner, ResultCache, RunSpec, default_jobs,
                     format_stragglers, write_trace)
from .figures import (
    QUICK_CPUS,
    SPEEDUP_FIGURES,
    FigureSpec,
    bench_params,
    figure15_bars_many,
    figure16_bars_many,
    figure_curves,
    format_bars,
    format_curves,
)
from .tables import (
    format_table1,
    format_table2,
    format_traffic,
    table1_microbenchmarks,
    table2_rows,
    traffic_rows,
)

__all__ = [
    "PAPER_CPU_COUNTS",
    "ascii_speedup_plot",
    "CurvePoint",
    "run_app",
    "speedup_curve",
    "ParallelRunner",
    "ResultCache",
    "format_stragglers",
    "write_trace",
    "RunSpec",
    "default_jobs",
    "figure15_bars_many",
    "figure16_bars_many",
    "QUICK_CPUS",
    "SPEEDUP_FIGURES",
    "FigureSpec",
    "bench_params",
    "figure_curves",
    "format_bars",
    "format_curves",
    "format_table1",
    "format_table2",
    "format_traffic",
    "table1_microbenchmarks",
    "table2_rows",
    "traffic_rows",
]
