"""Table I — normalized geometric means of volume and time per class
(internal partitioner, p = 2, relative to LB).

Paper values for reference (volume / time, row "All"):

====  =====  =====  =====  =====  =====  =====
       LB    LB+IR   MG    MG+IR   FG    FG+IR
Vol   1.00   0.80   0.81   0.73   0.93   0.77
Time  1.00   1.10   0.62   0.72   1.32   1.43
====  =====  =====  =====  =====  =====  =====

The reproduction asserts the *shape*: MG+IR lowest volume overall, MG
fastest, FG slowest, LB+IR best on rectangular, IR always reducing volume.
The "All" rows measured on the medium tier, before and after coarsening
moved to clustering, are recorded in docs/performance.md, section
"Clustering coarsening".
"""

import pytest

from repro.eval.experiments import run_table1_geomeans
from repro.eval.geomean import normalized_geomeans


@pytest.fixture(scope="module")
def report(internal_sweep, results_dir):
    rep = run_table1_geomeans(internal_sweep)
    rep.write(results_dir)
    return rep


def _means(data, metric, cls=None):
    subset = data if cls is None else data.subset(cls)
    values = subset.mean_metric(metric)
    means, _ = normalized_geomeans(values, "LB")
    return means


def test_table1_renders(report):
    print()
    print(report.text)
    assert report.tables["geomeans"]


def test_volume_all_mg_ir_lowest(internal_sweep):
    means = _means(internal_sweep, "volume")
    assert means["MG+IR"] == min(means.values())


def test_volume_all_ordering(internal_sweep):
    """MG+IR <= FG+IR and MG < FG, as in the paper's All row."""
    means = _means(internal_sweep, "volume")
    assert means["MG+IR"] <= means["FG+IR"] + 1e-9
    assert means["MG"] < means["FG"]


def test_volume_ir_always_helps(internal_sweep):
    means = _means(internal_sweep, "volume")
    for base in ("LB", "MG", "FG"):
        assert means[f"{base}+IR"] <= means[base] + 1e-9


def test_volume_rectangular_lb_ir_competitive(internal_sweep):
    """Paper Rec row: LB+IR 0.94 vs MG+IR 0.96 — the single class where
    the 1D method wins; assert MG+IR does not beat LB+IR by much."""
    means = _means(internal_sweep, "volume", "Rec")
    assert means["LB+IR"] <= means["MG+IR"] * 1.1


def test_time_all_mg_fastest(internal_sweep):
    means = _means(internal_sweep, "seconds")
    assert means["MG"] == min(means.values())


def test_time_fg_slowest_family(internal_sweep):
    means = _means(internal_sweep, "seconds")
    assert means["FG+IR"] == max(means.values())
    assert means["FG"] > means["MG"]


def test_time_mg_saves_vs_lb(internal_sweep):
    """Paper: MG takes on average ~28% less time than LB; assert a
    saving of at least 15% for the reproduction."""
    means = _means(internal_sweep, "seconds")
    assert means["MG"] < 0.85


@pytest.mark.benchmark(group="artifacts")
def test_table1_regenerate(benchmark, internal_sweep, results_dir):
    """Regenerate and print the Table I artifact under any bench mode."""
    rep = benchmark.pedantic(
        lambda: run_table1_geomeans(internal_sweep),
        iterations=1,
        rounds=1,
    )
    rep.write(results_dir)
    print()
    print(rep.text)
