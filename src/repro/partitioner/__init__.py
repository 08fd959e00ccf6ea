"""Multilevel hypergraph bipartitioner.

A from-scratch reimplementation of the algorithm family every partitioner
compared in the paper uses (Section II): multilevel coarsening by
heavy-connectivity clustering, greedy/random initial partitioning, and
Kernighan–Lin/Fiduccia–Mattheyses refinement with gain buckets under the
connectivity-1 (= cut-net, for two parts) metric.

Two presets substitute for the paper's two partitioners (see DESIGN.md):

* ``"mondriaan"`` — stands in for Mondriaan's internal hypergraph
  bipartitioner (unscaled heavy-connectivity clustering, full FM sweeps);
* ``"patoh"`` — stands in for PaToH (absorption-scaled clustering, deeper
  coarsening, more initial attempts, boundary-only FM).
"""

from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.bipartition import (
    BipartitionHResult,
    bipartition_hypergraph,
)
from repro.partitioner.fm import fm_refine, kway_rebalance, kway_refine
from repro.partitioner.multilevel import (
    multilevel_bipartition,
    multilevel_kway,
)
from repro.partitioner.vcycle import kway_vcycle_refine, vcycle_refine

__all__ = [
    "PartitionerConfig",
    "get_config",
    "bipartition_hypergraph",
    "BipartitionHResult",
    "fm_refine",
    "kway_refine",
    "kway_rebalance",
    "multilevel_bipartition",
    "multilevel_kway",
    "vcycle_refine",
    "kway_vcycle_refine",
]
