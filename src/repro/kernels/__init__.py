"""The kernels behind the pipeline's scalar hot loops.

The loops that dominate end-to-end runtime — the 2-way and k-way FM move
loops, the coarsening clustering sweep and identical-net merging —
live in :class:`~repro.kernels.python_backend.PythonBackend`: the seed
implementation relocated from ``partitioner/`` and tightened (no
per-move closures, direct bucket linking, vectorized net merging).  It
is the one kernel implementation; :func:`kernels_for` hands it to every
engine.

:class:`~repro.kernels.base.KernelBackend` stays as the interface, so
the benchmark harness can inject its frozen baseline kernels through
``PartitionerConfig.kernel_backend``.  Every kernel is checked against
those frozen references (``tests/kernels/test_equivalence.py``).

Alongside the kernels, :class:`~repro.kernels.state.FMPassState` keeps
the per-hypergraph buffers (list mirrors, gain/bucket storage, pin-count
scratch) alive across refinement calls, so multilevel refinement,
V-cycles, and iterative medium-grain runs stop paying per-call
``tolist()`` conversions and ``net_ids`` rebuilds.
:class:`~repro.kernels.spmv.SpMVState` mirrors the same pattern on the
matrix side for repeated volume/SpMV evaluation, and
:mod:`repro.kernels.spmv` holds the shared flat-array group-by kernels
(connectivity lambdas, (line, part) incidence lists, per-(part, row)
partial sums) used by ``core.volume``, ``spmv.*``, and
``hypergraph.metrics``.
"""

from __future__ import annotations

from repro.kernels.base import KernelBackend
from repro.kernels.kway import compute_kway_setup
from repro.kernels.python_backend import PythonBackend
from repro.kernels.spmv import SpMVState
from repro.kernels.state import FMPassState, compute_fm_setup

__all__ = [
    "KernelBackend",
    "FMPassState",
    "SpMVState",
    "PYTHON_KERNELS",
    "compute_fm_setup",
    "compute_kway_setup",
    "kernels_for",
]

#: The kernel implementation every engine runs.
PYTHON_KERNELS: KernelBackend = PythonBackend()


def kernels_for(cfg) -> KernelBackend:
    """The kernels a run under ``cfg`` uses.

    The python kernels, unless ``cfg.kernel_backend`` holds an injected
    :class:`KernelBackend` (the benchmark harness's frozen baselines).
    """
    kb = cfg.kernel_backend
    return PYTHON_KERNELS if kb is None else kb
