.PHONY: install test cov bench bench-mem bench-service bench-dist service-smoke bench-figures check test-policy-oracle catalog-audit results experiments experiments-full sweep-cache-clean clean

install:
	pip install -e .

test:
	pytest tests/

# Coverage gate CI enforces on the simulator core and the observability
# layer (85% floor), with the per-cell kernel's own tests as CI runs
# them.  Degrades to a plain test run with a notice when
# pytest-cov is not installed locally.
cov:
	@if PYTHONPATH=src python -c "import pytest_cov" 2>/dev/null; then \
	  PYTHONPATH=src python -m pytest -q tests/sim tests/obs \
	    tests/analysis/test_batch_engine.py \
	    --cov=repro.sim --cov=repro.obs --cov-branch \
	    --cov-report=term-missing --cov-fail-under=85; \
	else \
	  echo "pytest-cov not installed; running tests without coverage"; \
	  PYTHONPATH=src python -m pytest -q tests/sim tests/obs \
	    tests/analysis/test_batch_engine.py; \
	fi

# Perf trajectory: canonical engine workloads -> BENCH_engine.json
# (each engine workload checked against the cell kernel), then the
# pytest micro-benchmarks.
bench:
	PYTHONPATH=src python benchmarks/write_bench_json.py
	pytest benchmarks/ --benchmark-only

# Memory trajectory: before/after peak RSS and bytes shipped for the two
# trace backends (one fresh subprocess per backend) -> BENCH_mem.json.
bench-mem:
	PYTHONPATH=src python benchmarks/mem_workload.py

# Service trajectory: warm HTTP serving floor, single-flight dedup,
# served-vs-in-process bit parity (<= 15% overhead) and the distributed
# fan-out workload -> BENCH_service.json.
bench-service:
	PYTHONPATH=src python benchmarks/service_workload.py

# Distributed trajectory only: 4 loopback `rtdvs worker` subprocesses
# vs in-process on a cold sweep, plus a worker-kill run — bit-identity and exactly-once delivery gates, with
# the speedup floor clamped to the box's effective lanes.  Merges its
# entry into an existing BENCH_service.json.
bench-dist:
	PYTHONPATH=src python benchmarks/service_workload.py --only distributed

# Blocking service smoke: a real `rtdvs serve` subprocess, fig9 quick
# submitted twice, second response must be all cache hits and
# byte-identical to the first.
service-smoke:
	PYTHONPATH=src python benchmarks/service_smoke.py

bench-figures:
	pytest benchmarks/ --benchmark-only

# What CI runs, in CI's order: tier-1 tests, the repository benchmark's
# own tests (a src rename that leaves a probe target missing fails
# here), the policy-oracle differential suite, the coverage gate, the
# full-catalog trace audit, the committed quick-results summary, a smoke
# pass of the engine benchmarks (so the perf harness itself cannot rot),
# the peak-RSS gate of the memory workload (array trace backend must cut
# peak RSS >= 30%), the service smoke and gates, and the distributed
# differential tests and fan-out gates.  One CI step is left out:
# `benchmarks/write_bench_json.py`, whose 2-CPU parallel gate (>= 1.50x)
# read 1.39x and 1.90x in two runs on one host, so it can fail on a slow
# phase of the machine rather than on the program.
check:
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src python -m pytest perfbench -q
	$(MAKE) test-policy-oracle
	$(MAKE) cov
	$(MAKE) catalog-audit
	$(MAKE) results
	git diff --exit-code results_quick_summary.txt
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -k engine -q
	PYTHONPATH=src python benchmarks/mem_workload.py --gate
	$(MAKE) service-smoke
	PYTHONPATH=src python benchmarks/service_workload.py \
	  --out BENCH_service_ci.json \
	  --only warm_http --only dedup --only parity
	PYTHONPATH=src python -m pytest -q tests/dist
	$(MAKE) bench-dist

# The policy-oracle differential suite: maintained policy state must
# produce SimResults bit-identical to the from-scratch test oracle.
test-policy-oracle:
	PYTHONPATH=src python -m pytest -q tests/core/test_incremental_state.py

# Full-catalog trace audit at the small-N CI profile: every scenario's
# cells are replayed with traces, counters/energy re-derived, aggregates
# and declared invariants cross-checked.  Shares the sweep cell cache
# (warm cache => cheap re-audit) and exits non-zero on any violation.
catalog-audit:
	PYTHONPATH=src python -m repro catalog audit \
	  --report audit-report.json

# Regenerate the committed quick-scale shape-check summary from a cold
# (cache-free) quick run-all.  CI fails when the committed file differs.
results:
	PYTHONPATH=src python -m repro run-all --no-cache > results_quick_summary.txt

experiments:
	python -m repro run-all --out results_quick

experiments-full:
	python -m repro run-all --full --out results_full

# Drop every cached sweep cell (honours RTDVS_CELL_CACHE; see
# `python -m repro cache info` for the current location and size).
sweep-cache-clean:
	PYTHONPATH=src python -m repro cache clean

clean:
	rm -rf .pytest_cache .benchmarks .hypothesis results_quick results_full
	find . -name __pycache__ -type d -exec rm -rf {} +
