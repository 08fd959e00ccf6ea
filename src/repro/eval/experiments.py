"""Canned experiment definitions — one per paper table/figure.

Each ``run_*`` function regenerates the corresponding artifact over the
synthetic collection: it executes the paper's protocol via
:mod:`repro.eval.runner`, renders the same rows/series the paper reports
(ASCII chart + markdown table), and optionally writes CSV files.  The
benchmark modules under ``benchmarks/`` are thin wrappers around these.

Artifact map (see DESIGN.md Section 5):

========  ===========================================================
fig3      medium-grain walk-through on the gd97-like matrix
fig4a–d   volume profiles, 6 methods, internal partitioner, p = 2
fig5      partitioning-time profile, same runs
table1    normalized geometric means (volume & time) per class
fig6a/b   volume profiles under the "patoh" preset, p = 2 and p = 64
table2    volume & BSP-cost geometric means, p = 2 and p = 64
========  ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.methods import bipartition
from repro.core.split import initial_split
from repro.core.medium_grain import assemble_b_matrix, build_medium_grain
from repro.eval.geomean import normalized_geomeans
from repro.eval.profiles import PerformanceProfile, performance_profile
from repro.eval.report import (
    PWAY_COLUMNS,
    ascii_profile_chart,
    format_float,
    markdown_table,
    pway_rows,
    pway_table,
    write_csv,
)
from repro.eval.runner import (
    PAPER_METHODS,
    ExperimentData,
    MethodSpec,
    run_methods,
)
from repro.sparse.collection import build_collection
from repro.sparse.generators import gd97_like
from repro.utils.rng import spawn_seeds

__all__ = [
    "ExperimentReport",
    "run_fig3_demo",
    "collect_paper_runs",
    "collect_kway_runs",
    "run_fig4_profiles",
    "run_fig5_time_profile",
    "run_table1_geomeans",
    "run_fig6_profiles",
    "run_table2_geomeans",
    "CLASS_ORDER",
]

CLASS_ORDER = ("Rec", "Sym", "Sqr")
_REFERENCE = "LB"  # paper normalizes by localbest without IR


@dataclass
class ExperimentReport:
    """Rendered output of one experiment."""

    name: str
    text: str
    tables: dict[str, list[list[object]]] = field(default_factory=dict)
    profiles: dict[str, PerformanceProfile] = field(default_factory=dict)
    data: Optional[ExperimentData] = None

    def write(self, out_dir: str | Path) -> None:
        """Persist the text report and CSV series under ``out_dir``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{self.name}.txt").write_text(self.text, encoding="utf-8")
        for key, rows in self.tables.items():
            if rows:
                write_csv(
                    out / f"{self.name}_{key}.csv",
                    [str(c) for c in rows[0]],
                    rows[1:],
                )


# --------------------------------------------------------------------- #
# Fig. 3 — qualitative walk-through
# --------------------------------------------------------------------- #
def run_fig3_demo(nruns: int = 25, seed: int = 1997) -> ExperimentReport:
    """Medium-grain walk-through on the gd97-like matrix (paper Fig. 3).

    Reports the split sizes, the reduced-B/hypergraph dimensions, and the
    best volume over ``nruns`` runs for the row-net, column-net,
    fine-grain, and medium-grain methods (the quantities the Fig. 3
    caption reports for gd97_b).
    """
    a = gd97_like()
    split = initial_split(a, seed=seed)
    instance = build_medium_grain(split)
    b = assemble_b_matrix(split)
    lines = [
        "Fig. 3 walk-through (gd97-like stand-in for gd97_b)",
        f"  A: {a.nrows} x {a.ncols}, {a.nnz} nonzeros",
        f"  split: |Ar| = {int(split.ar_mask.sum())}, "
        f"|Ac| = {int(split.ac_mask.sum())}",
        f"  B: {b.nrows} x {b.ncols}, {b.nnz} nonzeros "
        f"({a.nnz} real + {b.nnz - a.nnz} dummies)",
        f"  medium-grain hypergraph: {instance.hypergraph.nverts} vertices "
        f"(<= m+n = {a.nrows + a.ncols}), {instance.hypergraph.nnets} nets",
        f"  best volume over {nruns} runs (eps = 0.03):",
    ]
    rows: list[list[object]] = [["method", "best_volume", "mean_volume"]]
    seeds = spawn_seeds(seed, nruns)
    for method in ("rownet", "colnet", "finegrain", "mediumgrain"):
        for refine in (False, True):
            vols = [
                bipartition(a, method=method, refine=refine, seed=s).volume
                for s in seeds
            ]
            label = method + ("+ir" if refine else "")
            lines.append(
                f"    {label:16s} best = {min(vols):3d}   "
                f"mean = {np.mean(vols):6.2f}"
            )
            rows.append([label, min(vols), float(np.mean(vols))])
    return ExperimentReport(
        name="fig3", text="\n".join(lines), tables={"volumes": rows}
    )


# --------------------------------------------------------------------- #
# Shared sweep for Figs. 4–5 and Table I
# --------------------------------------------------------------------- #
_sweep_cache: dict[tuple, ExperimentData] = {}


def collect_paper_runs(
    *,
    tier: str | None = None,
    max_tier: str | None = "medium",
    nruns: int = 2,
    nparts: int = 2,
    config: str = "mondriaan",
    base_seed: int = 2014,
    with_bsp: bool = False,
    min_nnz: int = 0,
    progress: bool = False,
    jobs: "int | None | JobsBudget" = 1,
    algo: str = "recursive",
    kway_vcycles: int = 0,
    task_timeout: float | None = None,
    retries: int = 0,
) -> ExperimentData:
    """Run (and memoize) the six-method sweep used by several artifacts.

    ``jobs`` changes only how fast the sweep runs, never its results
    (the parallel sweep is bit-identical to the serial one), so it is
    not part of the memoization key; ``task_timeout`` / ``retries`` (the
    hardened-execution knobs, see ``docs/robustness.md``) never change
    results either and are likewise excluded.  ``algo`` (the p-way
    scheme for ``nparts > 2``) and ``kway_vcycles`` (flat vs multilevel
    direct k-way) change results outright, so they are part of the
    key.
    """
    key = (
        tier, max_tier, nruns, nparts, config, base_seed, with_bsp,
        min_nnz, algo, kway_vcycles,
    )
    if key in _sweep_cache:
        return _sweep_cache[key]
    entries = build_collection(tier=tier, max_tier=max_tier)
    if min_nnz:
        from repro.sparse.collection import load_instance

        entries = [
            e for e in entries if load_instance(e.name).nnz >= min_nnz
        ]
    data = run_methods(
        entries,
        PAPER_METHODS,
        nruns=nruns,
        nparts=nparts,
        config=config,
        base_seed=base_seed,
        with_bsp=with_bsp,
        progress=progress,
        jobs=jobs,
        algo=algo,
        kway_vcycles=kway_vcycles,
        task_timeout=task_timeout,
        retries=retries,
    )
    _sweep_cache[key] = data
    return data


#: Method-family columns of the Table-II k-way comparison: the direct
#: k-way partitioner, flat and multilevel.  ``KWAY_ML_VCYCLES`` matches
#: the BENCH ``kway-ml`` stage (one full multilevel construction).
KWAY_ML_VCYCLES = 1
KWAY_FAMILIES: tuple[tuple[str, int], ...] = (
    ("kway", 0),
    ("kway+ml", KWAY_ML_VCYCLES),
)


def collect_kway_runs(
    *,
    max_tier: str | None = "medium",
    nparts: int = 64,
    base_seed: int = 2014,
    with_bsp: bool = True,
    min_nnz: int = 6400,
    progress: bool = False,
    jobs: "int | None | JobsBudget" = 1,
    task_timeout: float | None = None,
    retries: int = 0,
) -> dict[str, ExperimentData]:
    """Mediumgrain p-way runs under the direct k-way families.

    One sweep per :data:`KWAY_FAMILIES` entry — the ``kway`` (flat) and
    ``kway+ml`` (multilevel) method-family columns of the Table-II
    comparison — restricted to the mediumgrain method so the extra cost
    stays a fraction of the six-method recursive sweep.  Seeds, entries,
    and the PaToH preset match :func:`collect_paper_runs`' p = 64 data,
    so records line up per instance.  Memoized like the paper sweeps.
    """
    key = (
        "kway-families", max_tier, nparts, base_seed, with_bsp, min_nnz,
    )
    if key in _sweep_cache:
        return _sweep_cache[key]
    entries = build_collection(max_tier=max_tier)
    if min_nnz:
        from repro.sparse.collection import load_instance

        entries = [
            e for e in entries if load_instance(e.name).nnz >= min_nnz
        ]
    out: dict[str, ExperimentData] = {}
    for label, vcycles in KWAY_FAMILIES:
        out[label] = run_methods(
            entries,
            (MethodSpec(label, "mediumgrain", False),),
            nruns=1,
            nparts=nparts,
            config="patoh",
            base_seed=base_seed,
            with_bsp=with_bsp,
            progress=progress,
            jobs=jobs,
            algo="kway",
            kway_vcycles=vcycles,
            task_timeout=task_timeout,
            retries=retries,
        )
    _sweep_cache[key] = out
    return out


def _profile_report(
    name: str,
    title: str,
    data: ExperimentData,
    metric: str,
    max_tau: float,
    by_class: bool,
) -> ExperimentReport:
    report = ExperimentReport(name=name, text="", data=data)
    sections = [("all", data)]
    if by_class:
        sections += [(cls, data.subset(cls)) for cls in CLASS_ORDER]
    chunks = []
    for label, subset in sections:
        if not subset.records:
            continue
        values = subset.mean_metric(metric)
        profile = performance_profile(values, max_tau=max_tau)
        report.profiles[label] = profile
        chunks.append(
            ascii_profile_chart(profile, f"{title} — {label}")
        )
        rows: list[list[object]] = [["tau"] + list(values)]
        for i, tau in enumerate(profile.taus):
            rows.append(
                [float(tau)]
                + [float(profile.fractions[m][i]) for m in values]
            )
        report.tables[label] = rows
    report.text = "\n\n".join(chunks)
    return report


def run_fig4_profiles(data: ExperimentData) -> ExperimentReport:
    """Fig. 4(a–d): volume profiles for all / Sqr / Sym / Rec classes."""
    return _profile_report(
        "fig4",
        "Communication volume relative to best",
        data,
        metric="volume",
        max_tau=2.0,
        by_class=True,
    )


def run_fig5_time_profile(data: ExperimentData) -> ExperimentReport:
    """Fig. 5: partitioning-time profile over all matrices."""
    return _profile_report(
        "fig5",
        "Partitioning time relative to best",
        data,
        metric="seconds",
        max_tau=6.0,
        by_class=False,
    )


def run_table1_geomeans(data: ExperimentData) -> ExperimentReport:
    """Table I: normalized geometric means of volume and time per class."""
    methods = data.methods()
    header = ["metric", "class"] + methods
    rows: list[list[object]] = [header]
    lines = ["Table I — geometric means relative to LB (internal partitioner)"]
    for metric, label in (("volume", "Com.Vol."), ("seconds", "Time")):
        for cls in CLASS_ORDER + ("All",):
            subset = data if cls == "All" else data.subset(cls)
            if not subset.records:
                continue
            values = subset.mean_metric(metric)
            means, n_used = normalized_geomeans(values, _REFERENCE)
            rows.append(
                [label, cls] + [round(means[m], 3) for m in methods]
            )
            lines.append(
                f"  {label:9s} {cls:4s} "
                + "  ".join(
                    f"{m}={format_float(means[m])}" for m in methods
                )
                + f"   (n={n_used})"
            )
    md = markdown_table(
        rows[0], rows[1:], highlight_min=False
    )
    return ExperimentReport(
        name="table1",
        text="\n".join(lines) + "\n\n" + md,
        tables={"geomeans": rows},
        data=data,
    )


# --------------------------------------------------------------------- #
# Fig. 6 and Table II — "patoh" preset, p = 2 and p = 64
# --------------------------------------------------------------------- #
def run_fig6_profiles(
    data_p2: ExperimentData, data_p64: ExperimentData | None
) -> ExperimentReport:
    """Fig. 6(a,b): volume profiles under the PaToH-preset partitioner."""
    report = ExperimentReport(name="fig6", text="", data=data_p2)
    chunks = []
    for label, data in (("p2", data_p2), ("p64", data_p64)):
        if data is None or not data.records:
            continue
        values = data.mean_metric("volume")
        profile = performance_profile(values, max_tau=2.0)
        report.profiles[label] = profile
        chunks.append(
            ascii_profile_chart(
                profile,
                f"Volume relative to best — patoh preset, {label}",
            )
        )
        rows: list[list[object]] = [["tau"] + list(values)]
        for i, tau in enumerate(profile.taus):
            rows.append(
                [float(tau)]
                + [float(profile.fractions[m][i]) for m in values]
            )
        report.tables[label] = rows
    report.text = "\n\n".join(chunks)
    return report


def run_table2_geomeans(
    data_p2: ExperimentData,
    data_p64: ExperimentData | None,
    data_kway: "dict[str, ExperimentData] | None" = None,
) -> ExperimentReport:
    """Table II: volume and BSP-cost geometric means, p = 2 and p = 64.

    ``data_kway`` (label -> mediumgrain-only runs, see
    :func:`collect_kway_runs`) appends the method-family comparison:
    ``kway`` / ``kway+ml`` columns normalized against the recursive
    ``MG`` baseline, plus the per-record :func:`pway_table` so the
    families are compared in the paper-style table, not just in BENCH
    JSON.
    """
    lines = ["Table II — geometric means relative to LB (patoh preset)"]
    rows: list[list[object]] = []
    header: list[object] | None = None
    for plabel, data in (("2", data_p2), ("64", data_p64)):
        if data is None or not data.records:
            continue
        methods = data.methods()
        if header is None:
            header = ["metric", "p"] + methods
            rows.append(header)
        for metric, label in (("volume", "Vol"), ("bsp", "Cost")):
            values = data.mean_metric(metric)
            means, n_used = normalized_geomeans(values, _REFERENCE)
            rows.append(
                [label, plabel] + [round(means[m], 3) for m in methods]
            )
            lines.append(
                f"  {label:5s} p={plabel:3s} "
                + "  ".join(
                    f"{m}={format_float(means[m])}" for m in methods
                )
                + f"   (n={n_used})"
            )
    md = markdown_table(rows[0], rows[1:]) if rows else ""
    tables = {"geomeans": rows}
    if data_kway and data_p64 is not None and data_p64.records:
        # Method-family comparison: recursive MG vs the direct k-way
        # engines on the same instances/seeds, normalized by MG.
        combined = ExperimentData(
            [r for r in data_p64.records if r.method == "MG"]
            + [r for d in data_kway.values() for r in d.records]
        )
        fam_methods = combined.methods()
        fam_rows: list[list[object]] = [["metric", "p"] + fam_methods]
        lines.append("")
        lines.append(
            "p-way method families — recursive MG vs direct k-way "
            "(geomeans relative to MG):"
        )
        for metric, label in (("volume", "Vol"), ("bsp", "Cost")):
            values = combined.mean_metric(metric)
            means, n_used = normalized_geomeans(values, "MG")
            fam_rows.append(
                [label, "64"] + [round(means[m], 3) for m in fam_methods]
            )
            lines.append(
                f"  {label:5s} p=64  "
                + "  ".join(
                    f"{m}={format_float(means[m])}" for m in fam_methods
                )
                + f"   (n={n_used})"
            )
        md += "\n\n" + markdown_table(fam_rows[0], fam_rows[1:])
        md += "\n\n" + pway_table(combined.records)
        tables["kway_families"] = fam_rows
        tables["kway_pway"] = (
            [list(PWAY_COLUMNS)] + pway_rows(combined.records)
        )
    return ExperimentReport(
        name="table2",
        text="\n".join(lines) + "\n\n" + md,
        tables=tables,
        data=data_p2,
    )
