PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint lint-cold test test-service bench bench-full bench-grid bench-store bench-record bench-check perfbench stats serve

# Repo-aware static analysis on the incremental engine (unchanged files
# replay from .repro-lint-cache.json), then ruff/mypy when installed.
lint:
	$(PYTHON) -m repro lint --format json --stats
	@$(PYTHON) -c "import ruff" 2>/dev/null \
		&& $(PYTHON) -m ruff check src tests benchmarks \
		|| echo "ruff not installed; skipping"
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy src/repro \
		|| echo "mypy not installed; skipping"

# Escape hatch: full from-scratch analysis, no cache read or written.
lint-cold:
	$(PYTHON) -m repro lint --format json --no-cache

test: lint
	$(PYTHON) -m pytest -x -q
	@# Golden telemetry snapshots must not depend on test order: rerun
	@# tests/obs alone, with random ordering disabled if the plugin exists.
	$(PYTHON) -m pytest tests/obs -q -p no:randomly

# End-to-end service suite alone: live HTTP server on an ephemeral port,
# concurrency drills, lifecycle property tests, campaign crash-resume.
test-service:
	$(PYTHON) -m pytest tests/service -q

# Long-running prediction service (HOST/PORT overridable).
HOST ?= 127.0.0.1
PORT ?= 8044
serve:
	$(PYTHON) -m repro serve --host $(HOST) --port $(PORT)

# Telemetry summary for one artifact (override with ARTIFACT=figure5 etc.).
ARTIFACT ?= table6
stats:
	$(PYTHON) -m repro stats $(ARTIFACT)

# CI smoke: import-check and run every benchmark body once, no timing.
bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

# Every bench timed once by pytest-benchmark (the paper's tables and
# figures are timed by perfbench paper_cli, not here).
bench-full:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only

# Planner benches only: asserts the cold megagrid path holds its >= 3x
# speedup floor over a loop of one-row runs (bit-identical results).
bench-grid:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable -k "planner"

# Store benches: put/get throughput, engine warm restart, and the
# service kill-and-restart + campaign speedup drills (>= 10x warm,
# <= 0.5x parallel wall clock, byte-identical artifacts throughout).
bench-store:
	$(PYTHON) -m pytest benchmarks/bench_store.py benchmarks/bench_service.py -q --benchmark-disable

# Re-record the committed baseline: run every suite + the fidelity
# scorecard and rewrite benchmarks/bench_artifact.json (commit it; its
# git history is the perf trajectory).
bench-record:
	$(PYTHON) -m repro bench

# The post-`make bench` gate: re-run the suites, compare each gated
# field against benchmarks/bench_artifact.json (speed fields only when
# it was recorded on this machine, fidelity always), escalate-until
# re-measurement, and exit non-zero on any surviving regression.  The
# baseline is read, never written.
bench-check:
	$(PYTHON) -m repro bench --check

# One traced end-to-end benchmark run (perfbench/README.md); the last
# stdout line is the JSON result with the per-layer metrics.
WORKLOAD ?= npb_suite
perfbench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed 7 --seconds 20 --trace 1
