# Convenience targets; all assume the repo root as working directory.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-chaos serve-smoke bench-regress \
        bench-regress-update bench bench-e2e bench-e2e-update \
        bench-e2e-smoke bench-serve bench-serve-update bench-deadline

# Tier-1 verification: the fast test suite (bench/chaos deselected).
test:
	$(PYTHON) -m pytest -x -q

# Fault-injection suite for the hardened execution layer: injected
# crashes (real SIGKILLs), hangs vs the watchdog, exceptions, shm-attach
# failures, and poisoned results, inline and on the process pool.
# Opt-in — it deliberately kills and rebuilds worker pools.
test-chaos:
	$(PYTHON) -m pytest -m chaos -q

# Serving smoke: boot a real `repro-partition serve` daemon, submit
# p in {2, 4} over both algorithms, verify a cache hit on resubmission,
# and drain it cleanly with SIGTERM.  Completion-gated only — no wall
# clock (see docs/serving.md).
serve-smoke:
	$(PYTHON) -m benchmarks.bench_serve --smoke

# Compare current kernel timings against the committed BENCH_kernels.json;
# exits non-zero on a >25% regression in any kernel.
bench-regress:
	$(PYTHON) -m benchmarks.bench_regress --check

# Re-time the kernels and rewrite BENCH_kernels.json (commit the result).
bench-regress-update:
	$(PYTHON) -m benchmarks.bench_regress

# Compare current *end-to-end pipeline* timings (split -> partition ->
# refine -> volume -> vector distribution -> verified SpMV, serial sweep)
# against the committed BENCH_e2e.json; exits non-zero on a >50%
# regression (whole-pipeline wall clock is noisier than kernel timings).
bench-e2e:
	$(PYTHON) -m benchmarks.bench_e2e --check

# Re-time the full pipeline (serial + parallel sweep + frozen pre-PR
# baseline) and rewrite BENCH_e2e.json (commit the result).
bench-e2e-update:
	$(PYTHON) -m benchmarks.bench_e2e

# CI smoke for the execution layer: tiny instances, --jobs 2 on the
# process pool against --jobs 1, gated on completion + bit-identity only
# (never on wall clock — CI runners are noisy).
bench-e2e-smoke:
	$(PYTHON) -m benchmarks.bench_e2e --smoke --jobs 2

# Re-measure the serving tier against its gates (cache hits >= 20x
# faster than cold; saturation p99 under 10% injected worker crashes
# <= 3x fault-free); exits non-zero when a gate fails.
bench-serve:
	$(PYTHON) -m benchmarks.bench_serve --check

# Re-time the serving tier and rewrite BENCH_serve.json (commit it).
bench-serve-update:
	$(PYTHON) -m benchmarks.bench_serve

# Anytime deadlines on sym_grid2d_l: overshoot past a 10 ms deadline
# (informational) and degraded volume / contiguous floor for the
# recursive and k-way engines at p in {2, 4, 16, 64}; exits non-zero
# when a degraded answer is invalid or loses to the floor.
bench-deadline:
	$(PYTHON) -m benchmarks.bench_deadline

# The full pytest-benchmark micro-bench suite (slow, informational).
bench:
	$(PYTHON) -m pytest benchmarks/bench_kernels.py --benchmark-only -q
