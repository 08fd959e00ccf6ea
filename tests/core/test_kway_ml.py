"""Golden determinism layer for the multilevel k-way path.

The multilevel engine (``kway_vcycles >= 1``) is pure in ``(matrix,
knobs, seed)``; these pins make every silent drift — a reordered
matching sweep, a changed coarse target, an RNG consumed by the python
kernels but not by the frozen reference ones — a loud test failure.
Three layers:

* pinned ``(instance, p, seed, vcycles)`` → exact parts hashes,
* bit-identity with the frozen reference kernels, and across the
  ``jobs`` speed knob (the k-way path has no recursion tree — it must
  be a no-op),
* checkpointed sweeps over ``kway_vcycles`` that resume bit-identically.

Regenerate the table below (and say so in the commit) with::

    PYTHONPATH=src python - <<'PY'
    import hashlib, numpy as np
    from repro.core.kway import partition_kway
    from repro.sparse.collection import load_instance
    for inst, p in (("sym_grid2d_s", 4), ("sym_gd97_like", 8)):
        m = load_instance(inst)
        for vc in (1, 2):
            r = partition_kway(m, p, seed=2014, vcycles=vc)
            h = hashlib.sha256(np.ascontiguousarray(
                r.parts, dtype=np.int64).tobytes()).hexdigest()[:16]
            print(inst, p, vc, r.volume, h)
    PY
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.kway import partition_kway
from repro.core.recursive import partition
from repro.errors import PartitioningError
from repro.partitioner.config import get_config
from repro.sparse.collection import load_instance

SEED = 2014

# (instance, p, vcycles) -> (volume, sha256(parts int64 bytes)[:16]).
# On sym_grid2d_s, vcycles=2 coincides with vcycles=1: the extra
# restricted V-cycle found no improvement and the keep-best contract
# returned the incumbent.  On sym_gd97_like it improves 102 -> 101.
# Pinning both protects the keep-best contract either way.
# The multilevel pins were re-pinned twice, deliberately:
# * when the 2-way coarsest level (which the recursive-bisection
#   construction of ``multilevel_kway`` runs) switched to greedy grow +
#   spectral sweep — previously (64, "7500899f4167cade") and
#   (104, "b5ea9895ea1ff30b");
# * when recursive bisection became the only k-way coarsest
#   construction (no ranked restarts) — previously sym_grid2d_s
#   (59, "f40711c33eb576f9") and sym_gd97_like (101, "77e9819c41cc85d0"),
#   the same at vcycles 1 and 2.
GOLDEN_KWAY = {
    ("sym_grid2d_s", 4, 1): (59, "016e7be2b4c6d66a"),
    ("sym_grid2d_s", 4, 2): (59, "016e7be2b4c6d66a"),
    ("sym_gd97_like", 8, 1): (102, "661c04d8291c5546"),
    ("sym_gd97_like", 8, 2): (101, "4d1b0a751ae95c76"),
}


def parts_hash(parts) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(parts, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


@pytest.mark.parametrize(
    "instance,p,vcycles", sorted(GOLDEN_KWAY), ids=lambda v: str(v)
)
def test_kway_ml_pinned(instance, p, vcycles):
    matrix = load_instance(instance)
    res = partition_kway(matrix, p, seed=SEED, vcycles=vcycles)
    volume, digest = GOLDEN_KWAY[(instance, p, vcycles)]
    assert (res.volume, parts_hash(res.parts)) == (volume, digest)
    assert res.method.endswith("+ml")


def test_bit_identical_across_kernel_backends(reference_kernels):
    """Same parts, bit for bit, from the python kernels and the frozen
    reference kernels (the RNG must be consumed identically by both)."""
    matrix = load_instance("sym_grid2d_s")
    cfg = dataclasses.replace(get_config("mondriaan"), kway_vcycles=2)
    results = {
        name: partition_kway(matrix, 4, config=c, seed=SEED)
        for name, c in (
            ("python", cfg),
            ("reference", dataclasses.replace(
                cfg, kernel_backend=reference_kernels
            )),
        )
    }
    hashes = {parts_hash(r.parts) for r in results.values()}
    assert len(hashes) == 1, f"kernels disagree: {results}"


def test_jobs_are_noops():
    """The direct k-way path has no recursion tree to schedule: jobs
    must not perturb the result (or even the RNG)."""
    matrix = load_instance("sym_grid2d_s")
    cfg = dataclasses.replace(get_config("mondriaan"), kway_vcycles=1)
    ref = partition(matrix, 4, algo="kway", config=cfg, seed=SEED, jobs=1)
    for jobs in (2, 4):
        res = partition(
            matrix, 4, algo="kway", config=cfg, seed=SEED, jobs=jobs,
        )
        np.testing.assert_array_equal(res.parts, ref.parts)
        assert res.volume == ref.volume


def test_vcycles_none_defers_to_config():
    matrix = load_instance("sym_grid2d_s")
    cfg = dataclasses.replace(get_config("mondriaan"), kway_vcycles=1)
    via_config = partition_kway(matrix, 4, config=cfg, seed=SEED)
    via_arg = partition_kway(matrix, 4, seed=SEED, vcycles=1)
    np.testing.assert_array_equal(via_config.parts, via_arg.parts)
    assert via_config.method == via_arg.method == "mediumgrain+ml"


def test_vcycles_zero_is_rejected():
    """``0`` selected the removed flat path: both entry points refuse
    it with an error that says so instead of mapping it elsewhere."""
    matrix = load_instance("sym_grid2d_s")
    with pytest.raises(PartitioningError, match="flat direct k-way"):
        partition_kway(matrix, 4, seed=SEED, vcycles=0)
    cfg = dataclasses.replace(get_config("mondriaan"), kway_vcycles=0)
    with pytest.raises(PartitioningError, match="flat direct k-way"):
        partition(matrix, 4, algo="kway", config=cfg, seed=SEED)


def test_default_is_one_multilevel_cycle():
    matrix = load_instance("sym_gd97_like")
    default = partition_kway(matrix, 8, seed=SEED)
    explicit = partition_kway(matrix, 8, seed=SEED, vcycles=1)
    np.testing.assert_array_equal(default.parts, explicit.parts)
    assert default.method == "mediumgrain+ml"


def test_ml_with_refine_method_label():
    matrix = load_instance("sym_grid2d_s")
    res = partition_kway(matrix, 4, refine=True, seed=SEED, vcycles=1)
    assert res.method == "mediumgrain+ml+ir"
    assert res.feasible


def test_negative_vcycles_rejected():
    matrix = load_instance("sym_grid2d_s")
    with pytest.raises(PartitioningError):
        partition_kway(matrix, 4, seed=SEED, vcycles=-1)


class TestKWayVcyclesSweep:
    """Sweep-layer determinism: ``kway_vcycles`` is result-determining
    (it must fragment checkpoints), and a checkpointed k-way-ml sweep
    resumes bit-identically."""

    @staticmethod
    def _specs(kway_vcycles):
        from repro.eval.runner import PAPER_METHODS
        from repro.eval.sweep import build_runspecs
        from repro.sparse.collection import build_collection

        table = {e.name: e for e in build_collection()}
        return build_runspecs(
            [table["sym_grid2d_s"]], PAPER_METHODS[:1], nruns=2,
            nparts=4, algo="kway", kway_vcycles=kway_vcycles,
        )

    def test_fingerprint_sensitive_to_vcycles(self):
        from repro.eval.sweep import _sweep_fingerprint

        assert _sweep_fingerprint(self._specs(1)) != _sweep_fingerprint(
            self._specs(2)
        )
        assert _sweep_fingerprint(self._specs(1)) == _sweep_fingerprint(
            self._specs(1)
        )

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        from repro.eval.sweep import run_sweep

        specs = self._specs(1)
        path = tmp_path / "kway_ml.jsonl"
        full = list(run_sweep(specs, jobs=1, checkpoint=path))

        # Truncate to header + first record: the rest must re-execute
        # and the merged stream must match the uninterrupted run.
        lines = path.read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:2]) + "\n")
        resumed = list(run_sweep(specs, jobs=1, checkpoint=partial))
        assert [
            dataclasses.replace(r, seconds=0.0) for r in resumed
        ] == [dataclasses.replace(r, seconds=0.0) for r in full]

    def test_vcycle_journal_rejects_flat_sweep(self, tmp_path):
        """A journal written at ``kway_vcycles=1`` must refuse a sweep
        naming ``kway_vcycles=0``, the removed flat path — the knob is
        part of the sweep's identity."""
        from repro.errors import EvaluationError
        from repro.eval.sweep import run_sweep

        path = tmp_path / "sweep.jsonl"
        list(run_sweep(self._specs(1), jobs=1, checkpoint=path))
        with pytest.raises(EvaluationError, match="different sweep"):
            list(run_sweep(self._specs(0), jobs=1, checkpoint=path))
