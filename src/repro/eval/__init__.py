"""Evaluation harness.

Reimplements the paper's experimental apparatus (Section IV): Dolan–Moré
performance profiles, normalized geometric-mean tables, an experiment
runner over the synthetic collection, and text/CSV rendering of every
table and figure.
"""

from repro.eval.profiles import (
    PerformanceProfile,
    performance_profile,
    performance_ratios,
)
from repro.eval.geomean import normalized_geomeans
from repro.eval.runner import (
    PAPER_METHODS,
    ExperimentData,
    MethodSpec,
    RunRecord,
    run_methods,
)
from repro.eval.sweep import (
    RunSpec,
    build_runspecs,
    execute_runspec,
    run_sweep,
)
from repro.eval.report import ascii_profile_chart, markdown_table, write_csv

__all__ = [
    "PerformanceProfile",
    "performance_profile",
    "performance_ratios",
    "normalized_geomeans",
    "MethodSpec",
    "RunRecord",
    "ExperimentData",
    "PAPER_METHODS",
    "run_methods",
    "RunSpec",
    "build_runspecs",
    "execute_runspec",
    "run_sweep",
    "ascii_profile_chart",
    "markdown_table",
    "write_csv",
]
