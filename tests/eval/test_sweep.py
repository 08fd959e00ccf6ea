"""Tests for the parallel sweep engine.

The load-bearing property is *bit-identity*: for a fixed base seed, the
parallel sweep must produce exactly the records of the serial sweep —
same seeds, volumes, feasibility, BSP costs, and ordering — apart from
the measured wall-clock ``seconds``.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.eval.runner import ExperimentData, MethodSpec, run_methods
from repro.eval.sweep import (
    RunSpec,
    SweepCheckpoint,
    _chunk_by_instance,
    build_runspecs,
    execute_runspec,
    run_sweep,
)
from repro.sparse.collection import build_collection
from repro.partitioner.config import PartitionerConfig
from repro.utils.executor import RetryPolicy
from repro.utils.parallel import split_jobs
from repro.utils.rng import spawn_seeds

FAST_METHODS = (
    MethodSpec("LB", "localbest", False),
    MethodSpec("MG", "mediumgrain", False),
)


def _norm(records):
    """Records with the (non-deterministic) wall-clock zeroed."""
    return [dataclasses.replace(r, seconds=0.0) for r in records]


@pytest.fixture(scope="module")
def entries():
    return build_collection(tier="small")[:3]


@pytest.fixture(scope="module")
def specs(entries):
    return build_runspecs(entries, FAST_METHODS, nruns=2, base_seed=7)


@pytest.fixture(scope="module")
def serial_records(specs):
    return list(run_sweep(specs, jobs=1))


class TestBuildRunspecs:
    def test_canonical_order(self, entries, specs):
        # instance-major, then method, then run — the historical loop.
        assert len(specs) == 3 * 2 * 2
        assert [s.index for s in specs] == list(range(12))
        assert specs[0].instance == specs[3].instance == entries[0].name
        assert specs[4].instance == entries[1].name
        assert [s.label for s in specs[:4]] == ["LB", "LB", "MG", "MG"]

    def test_seed_tree_preserved(self, specs):
        seeds = spawn_seeds(7, 2)
        assert [s.seed for s in specs[:2]] == seeds
        # Every method faces identical randomness.
        assert [s.seed for s in specs[2:4]] == seeds

    def test_bad_nruns(self, entries):
        with pytest.raises(EvaluationError):
            build_runspecs(entries, FAST_METHODS, nruns=0)

    def test_specs_are_picklable(self, specs):
        import pickle

        assert pickle.loads(pickle.dumps(specs[0])) == specs[0]


class TestRunSweep:
    def test_serial_matches_legacy_runner(self, entries, serial_records):
        data = run_methods(entries, FAST_METHODS, nruns=2, base_seed=7)
        assert _norm(data.records) == _norm(serial_records)

    def test_parallel_bit_identical(self, specs, serial_records):
        """jobs=4 and jobs=1 produce byte-identical ExperimentData —
        same seeds, volumes, feasibility, ordering — modulo seconds."""
        parallel = list(run_sweep(specs, jobs=4))
        assert _norm(parallel) == _norm(serial_records)
        d1 = ExperimentData(_norm(serial_records))
        d4 = ExperimentData(_norm(parallel))
        assert d1 == d4  # dataclass equality over the full record list
        for m in d1.methods():
            np.testing.assert_array_equal(
                d1.mean_metric("volume")[m], d4.mean_metric("volume")[m]
            )

    def test_parallel_jobs2_bit_identical(self, specs, serial_records):
        assert _norm(list(run_sweep(specs, jobs=2))) == _norm(
            serial_records
        )

    def test_run_methods_jobs_param(self, entries):
        d1 = run_methods(entries[:1], FAST_METHODS, nruns=1, base_seed=3)
        d2 = run_methods(
            entries[:1], FAST_METHODS, nruns=1, base_seed=3, jobs=2
        )
        assert _norm(d1.records) == _norm(d2.records)

    def test_streaming_order(self, specs, serial_records):
        # run_sweep is a generator yielding records in spec order.
        it = run_sweep(specs[:3], jobs=1)
        first = next(it)
        assert dataclasses.replace(
            first, seconds=0.0
        ) == dataclasses.replace(serial_records[0], seconds=0.0)

    def test_chunks_follow_instance_boundaries(self, specs):
        chunks = _chunk_by_instance(specs)
        assert len(chunks) == 3
        for chunk in chunks:
            assert len({s.instance for s in chunk}) == 1
        assert [s.index for c in chunks for s in c] == list(range(12))

    def test_single_instance_parallel(self, entries):
        """With fewer instances than workers the sweep must still fan
        out (per-run chunks) and stay bit-identical to serial."""
        specs = build_runspecs(
            entries[:1], FAST_METHODS, nruns=3, base_seed=13
        )
        serial = list(run_sweep(specs, jobs=1))
        parallel = list(run_sweep(specs, jobs=3))
        assert _norm(parallel) == _norm(serial)

    def test_resolve_jobs(self, specs, serial_records):
        """``None``/``0`` mean the CPU count; a negative budget is an
        evaluation error."""
        for jobs in (None, 0):
            assert _norm(list(run_sweep(specs[:2], jobs=jobs))) == _norm(
                serial_records[:2]
            )
        with pytest.raises(EvaluationError):
            list(run_sweep(specs, jobs=-2))



class TestJobsBudgetSweep:
    """One --jobs N composed across sweep x recursion levels: an int
    ``jobs`` is the total budget, split by
    :func:`~repro.utils.parallel.split_jobs`."""

    @pytest.fixture(scope="class")
    def pway_specs(self, entries):
        return build_runspecs(
            entries[:2], FAST_METHODS[:1], nruns=2, nparts=4, base_seed=5
        )

    def test_budget_bit_identical(self, pway_specs):
        serial = list(run_sweep(pway_specs, jobs=1))
        budgeted = list(run_sweep(pway_specs, jobs=4))
        assert _norm(budgeted) == _norm(serial)

    def test_budget_of_one_runs_inline(self, pway_specs, monkeypatch):
        import repro.eval.sweep as sweep

        serial = list(run_sweep(pway_specs, jobs=1))

        def no_pool(*args):
            raise AssertionError("a budget of one dispatched to the pool")

        monkeypatch.setattr(sweep, "_run_chunks", no_pool)
        one = list(run_sweep(pway_specs, jobs=1))
        assert _norm(one) == _norm(serial)

    def test_budget_larger_than_instances(self, pway_specs):
        """jobs > instances: per-run items take the outer level and the
        leftover goes to recursion; results stay bit-identical."""
        assert split_jobs(8, len(pway_specs)) == (4, 2)
        serial = list(run_sweep(pway_specs, jobs=1))
        wide = list(run_sweep(pway_specs, jobs=8))
        assert _norm(wide) == _norm(serial)

    def test_prime_budget(self, pway_specs):
        serial = list(run_sweep(pway_specs, jobs=1))
        prime = list(run_sweep(pway_specs, jobs=5))
        assert _norm(prime) == _norm(serial)

    def test_runspec_jobs_is_a_speed_knob(self, entries):
        """An explicit execute_runspec jobs changes nothing but wall
        clock."""
        base = build_runspecs(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=5
        )
        assert _norm(
            [execute_runspec(s) for s in base]
        ) == _norm([execute_runspec(s, jobs=2) for s in base])

    def test_budget_inner_share_reaches_the_run(self, entries, monkeypatch):
        """One run under a budget of 4: the chunk runs in the driver and
        the p-way run gets all four recursion workers."""
        import repro.eval.sweep as sweep

        seen = []

        def spy(spec, jobs=1):
            seen.append(jobs)
            return execute_runspec(spec, jobs=jobs)

        monkeypatch.setattr(sweep, "execute_runspec", spy)
        specs = build_runspecs(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=5
        )
        list(run_sweep(specs, jobs=4))
        assert seen == [4]

    def test_run_methods_accepts_budget(self, entries):
        d1 = run_methods(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=3
        )
        d2 = run_methods(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=3,
            jobs=4,
        )
        assert _norm(d1.records) == _norm(d2.records)


class TestExecuteRunspec:
    def test_verify_spmv_spec(self, entries):
        spec = RunSpec(
            index=0,
            instance=entries[0].name,
            matrix_class=entries[0].matrix_class.short,
            label="MG+IR",
            method="mediumgrain",
            refine=True,
            seed=11,
            verify_spmv=True,
        )
        record = execute_runspec(spec)
        assert record.volume >= 0
        assert record.seconds > 0

    def test_with_bsp(self, entries):
        spec = RunSpec(
            index=0,
            instance=entries[0].name,
            matrix_class=entries[0].matrix_class.short,
            label="MG",
            method="mediumgrain",
            refine=False,
            seed=5,
            with_bsp=True,
        )
        record = execute_runspec(spec)
        assert record.bsp is not None and record.bsp >= 0


class TestSweepFingerprint:
    """Checkpoint identity must ignore every speed/resilience knob.

    A sweep interrupted under ``--jobs 4 --task-timeout 30 --retries 2``
    and resumed serially with no hardening must still match its journal:
    none of those knobs change what a run computes.
    """

    @staticmethod
    def _spec(**config_overrides):
        from repro.eval.sweep import _sweep_fingerprint
        from repro.partitioner.config import get_config

        cfg = dataclasses.replace(
            get_config("mondriaan"), **config_overrides
        )
        spec = RunSpec(
            index=0, instance="sym_grid2d_s", matrix_class="sym",
            label="G1", method="mediumgrain", refine=False, seed=3,
            config=cfg,
        )
        return _sweep_fingerprint([spec])

    def test_resilience_knobs_do_not_change_identity(self, specs, tmp_path):
        knobs = {"jobs", "task_timeout", "retries", "trace"}
        for cls in (RunSpec, PartitionerConfig):
            assert not knobs & {f.name for f in dataclasses.fields(cls)}
        path = tmp_path / "sweep.jsonl"
        list(run_sweep(
            specs, jobs=2, policy=RetryPolicy(timeout=30.0, retries=2),
            checkpoint=path,
        ))
        journal = SweepCheckpoint(path, specs)
        journal.close()
        assert sorted(journal.done) == [s.index for s in specs]

    def test_kway_vcycles_ignored_for_recursive_specs(self):
        from repro.eval.sweep import _sweep_fingerprint

        spec = RunSpec(
            index=0, instance="sym_grid2d_s", matrix_class="sym",
            label="G1", method="mediumgrain", refine=False, seed=3,
            nparts=4,
        )
        for vcycles in (0, 2):
            assert _sweep_fingerprint(
                [dataclasses.replace(spec, kway_vcycles=vcycles)]
            ) == _sweep_fingerprint([spec]), vcycles
        # A live config's copy is overridden by the spec's, so it never
        # counts either.
        assert self._spec(kway_vcycles=2) == self._spec()

    def test_result_determining_knobs_do_change_identity(self):
        from repro.eval.sweep import _sweep_fingerprint
        from repro.partitioner.config import get_config

        base = self._spec()
        assert self._spec(algo="kway") != base
        assert self._spec(fm_max_passes=5) != base
        spec = RunSpec(
            index=0, instance="sym_grid2d_s", matrix_class="sym",
            label="G1", method="mediumgrain", refine=False, seed=3,
            config=get_config("mondriaan"),
        )
        assert _sweep_fingerprint(
            [dataclasses.replace(spec, eps=0.1)]
        ) != base

    def test_preset_name_and_jobs_still_normalized(
        self, entries, tmp_path
    ):
        """A budget's recursion-level jobs ride the chunk, not the spec:
        a journal written under ``jobs=4`` replays serially."""
        pway = build_runspecs(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=5
        )
        path = tmp_path / "sweep.jsonl"
        budgeted = list(run_sweep(pway, jobs=4, checkpoint=path))
        replayed = list(run_sweep(pway, jobs=1, checkpoint=path))
        assert replayed == budgeted
