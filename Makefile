# Convenience targets for the hypersphere-dominance reproduction.

PYTHON ?= python

.PHONY: install test lint fuzz chaos stream-chaos bench bench-smoke perfbench-test serve-smoke serve-procs-chaos examples experiments claims profile clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Domain-aware static analysis (docs/static-analysis.md) plus the
# strict-typing gate.  mypy is optional locally; CI always has it.
lint:
	$(PYTHON) -m repro.analysis
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --strict src/repro; \
	else \
		echo "mypy not installed; skipping the typing gate (CI runs it)"; \
	fi

# The long hypothesis profile plus the robustness/fault suites: many
# more examples, fresh seeds each run.  The query-level suites check
# kNN against knn_reference, and RkNN and top-k dominating against
# oracles that ask the scalar criterion about every pair; the batch
# suite checks the vectorised kernels against the scalar criteria and
# the Hyperbola kernel's dmin bracket against its all-rows quartic.  The
# packed-leaves suite mutates and snapshots trees between kNN queries,
# so stale leaf arrays or a stale leaf directory would show.
fuzz:
	HYPOTHESIS_PROFILE=fuzz $(PYTHON) -m pytest -q \
		tests/test_boundary_fuzz.py tests/test_faults.py \
		tests/test_robust_exact.py tests/test_robust_decision.py \
		tests/test_criteria_properties.py tests/test_batch.py \
		tests/test_knn_properties.py tests/test_flat_properties.py \
		tests/test_packed_leaves.py

# The resilience gate (docs/resilience.md): the chaos matrix (every
# fault seam x mode), budget/degradation behaviour, snapshot integrity,
# the serve seam matrix, and the idle-budget overhead bound.
chaos:
	$(PYTHON) -m pytest -q \
		tests/test_chaos.py tests/test_resilience.py \
		tests/test_snapshot.py tests/test_serve_chaos.py \
		benchmarks/test_budget_overhead.py

# The streaming durability gate (docs/streaming.md): the crash matrix
# (SIGKILL at every WAL/compaction seam under load) plus the WAL,
# overlay, engine, property and serve-mutation suites.
stream-chaos:
	$(PYTHON) -m pytest -q \
		tests/test_stream_chaos.py tests/test_stream_wal.py \
		tests/test_stream_overlay.py tests/test_stream_engine.py \
		tests/test_stream_property.py tests/test_serve_mutate.py

# The serving gate (docs/serving.md): boot a server on a fixture
# snapshot, fire a fault-injected burst over real TCP, and fail unless
# every response is 200/206/429 and /metrics scrapes — then the full
# serve test suite (protocol, admission, breaker, retry, end-to-end,
# concurrency).
serve-smoke:
	$(PYTHON) -m repro serve smoke
	$(PYTHON) -m repro serve smoke --seam queue --mode nan --every 2
	$(PYTHON) -m pytest -q \
		tests/test_serve_protocol.py tests/test_serve_admission.py \
		tests/test_serve_app.py tests/test_serve_concurrency.py

# The worker-pool gate (docs/serving.md, supervised multi-process
# serving): the SIGKILL chaos matrix — workers killed mid-load by pid
# and through the worker_kill/worker_heartbeat/worker_spawn seams —
# plus the supervisor unit suite and a supervised smoke burst.
serve-procs-chaos:
	$(PYTHON) -m pytest -q \
		tests/test_serve_procs_chaos.py tests/test_serve_supervisor.py
	$(PYTHON) -m repro serve smoke --workers 2 --every 4

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The standing perf observatory (docs/benchmarking.md): sweep the
# pinned quick points into a fresh trajectory and diff it against the
# committed BENCH_*.json baselines.  The compare step is a soft gate
# (the leading '-'): cross-machine timing differences are reported, not
# failed, while `repro bench compare` itself still exits non-zero on a
# past-threshold regression for same-machine CI lanes.
bench-smoke:
	$(PYTHON) -m repro bench --quick --out-dir .bench-smoke
	-$(PYTHON) -m repro bench compare --baseline . --current .bench-smoke \
		--threshold 0.5

# The served benchmark's own tests (perfbench/README.md): BENCHMARK.json
# stays in step with the package, the load generator, the reference
# answers and the traced run.  About a minute.
perfbench-test:
	$(PYTHON) -m pytest -q perfbench/tests

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

experiments:
	$(PYTHON) -m repro all

claims:
	$(PYTHON) -m repro claims

profile:
	$(PYTHON) -m repro stats

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist src/*.egg-info .domlint_cache .bench-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
