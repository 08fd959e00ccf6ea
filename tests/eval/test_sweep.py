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
    SweepAggregator,
    _chunk_by_instance,
    build_runspecs,
    execute_runspec,
    resolve_jobs,
    run_sweep,
)
from repro.sparse.collection import build_collection
from repro.utils.executor import JobsBudget
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

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(EvaluationError):
            resolve_jobs(-2)

    def test_thread_backend_bit_identical(self, specs, serial_records):
        threaded = list(run_sweep(specs, jobs=2, exec_backend="thread"))
        assert _norm(threaded) == _norm(serial_records)

    def test_unknown_exec_backend_rejected(self, specs):
        with pytest.raises(EvaluationError):
            list(run_sweep(specs, jobs=2, exec_backend="mpi"))


class TestJobsBudgetSweep:
    """One --jobs N composed across sweep x recursion levels."""

    @pytest.fixture(scope="class")
    def pway_specs(self, entries):
        return build_runspecs(
            entries[:2], FAST_METHODS[:1], nruns=2, nparts=4, base_seed=5
        )

    def test_budget_bit_identical(self, pway_specs):
        serial = list(run_sweep(pway_specs, jobs=1))
        budgeted = list(run_sweep(pway_specs, jobs=JobsBudget(4)))
        assert _norm(budgeted) == _norm(serial)

    def test_budget_of_one_runs_inline(self, pway_specs):
        serial = list(run_sweep(pway_specs, jobs=1))
        one = list(run_sweep(pway_specs, jobs=JobsBudget(1)))
        assert _norm(one) == _norm(serial)

    def test_budget_larger_than_instances(self, pway_specs):
        """jobs > instances: the leftover goes to recursion, chunks stay
        instance-aligned, results stay bit-identical."""
        serial = list(run_sweep(pway_specs, jobs=1))
        wide = list(run_sweep(pway_specs, jobs=JobsBudget(8)))
        assert _norm(wide) == _norm(serial)

    def test_prime_budget(self, pway_specs):
        serial = list(run_sweep(pway_specs, jobs=1))
        prime = list(run_sweep(pway_specs, jobs=JobsBudget(5)))
        assert _norm(prime) == _norm(serial)

    def test_runspec_jobs_is_a_speed_knob(self, entries):
        """An explicit RunSpec.jobs changes nothing but wall clock."""
        import dataclasses as dc

        base = build_runspecs(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=5
        )
        fast = [dc.replace(s, jobs=2) for s in base]
        assert _norm(
            [execute_runspec(s) for s in base]
        ) == _norm([execute_runspec(s) for s in fast])

    def test_run_methods_accepts_budget(self, entries):
        d1 = run_methods(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=3
        )
        d2 = run_methods(
            entries[:1], FAST_METHODS[:1], nruns=1, nparts=4, base_seed=3,
            jobs=JobsBudget(4),
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


class TestSweepAggregator:
    def test_matches_mean_metric(self, entries, serial_records):
        agg = SweepAggregator()
        for r in serial_records:
            agg.add(r)
        data = ExperimentData(list(serial_records))
        for metric in ("volume", "seconds"):
            means = data.mean_metric(metric)
            for m in agg.methods():
                for i, inst in enumerate(agg.instances()):
                    assert agg.mean(m, inst, metric) == pytest.approx(
                        means[m][i]
                    )

    def test_orders_match_experiment_data(self, serial_records):
        agg = SweepAggregator()
        data = ExperimentData(list(serial_records))
        for r in serial_records:
            agg.add(r)
        assert agg.instances() == data.instances()
        assert agg.methods() == data.methods()

    def test_feasible_fraction(self, serial_records):
        agg = SweepAggregator()
        assert agg.feasible_fraction() == 1.0  # vacuous
        for r in serial_records:
            agg.add(r)
        data = ExperimentData(list(serial_records))
        assert agg.feasible_fraction() == data.feasible_fraction()

    def test_missing_cell_raises(self):
        agg = SweepAggregator()
        with pytest.raises(EvaluationError, match="no runs"):
            agg.mean("MG", "nope", "volume")

    def test_unknown_metric_raises(self, serial_records):
        agg = SweepAggregator()
        agg.add(serial_records[0])
        r = serial_records[0]
        with pytest.raises(EvaluationError, match="unknown metric"):
            agg.mean(r.method, r.instance, "energy")

    def test_bsp_missing_raises(self, serial_records):
        agg = SweepAggregator()
        agg.add(serial_records[0])  # bsp is None in the fast sweep
        r = serial_records[0]
        with pytest.raises(EvaluationError, match="lacks"):
            agg.mean(r.method, r.instance, "bsp")


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

    def test_resilience_knobs_do_not_change_identity(self):
        base = self._spec()
        assert self._spec(task_timeout=30.0, retries=2) == base
        assert self._spec(jobs=8, exec_backend="thread") == base
        assert self._spec(
            jobs=4, exec_backend="process", task_timeout=5.0, retries=1,
        ) == base

    def test_result_determining_knobs_do_change_identity(self):
        from repro.eval.sweep import _sweep_fingerprint
        from repro.partitioner.config import get_config

        base = self._spec()
        assert self._spec(algo="kway") != base
        assert self._spec(n_initial=5) != base
        spec = RunSpec(
            index=0, instance="sym_grid2d_s", matrix_class="sym",
            label="G1", method="mediumgrain", refine=False, seed=3,
            config=get_config("mondriaan"),
        )
        assert _sweep_fingerprint(
            [dataclasses.replace(spec, eps=0.1)]
        ) != base

    def test_preset_name_and_jobs_still_normalized(self):
        from repro.eval.sweep import _sweep_fingerprint

        spec = RunSpec(
            index=0, instance="sym_grid2d_s", matrix_class="sym",
            label="G1", method="mediumgrain", refine=False, seed=3,
        )
        assert _sweep_fingerprint([spec]) == _sweep_fingerprint(
            [dataclasses.replace(spec, jobs=6)]
        )
