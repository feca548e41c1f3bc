# Developer entry points. Everything runs from the repo root and uses the
# src/ layout directly (no install needed).

PY      ?= python
PYPATH  := PYTHONPATH=src
SMOKE_CACHE := .bench-smoke-cache
A3_RESULT   := benchmarks/results/claim_a3_identification_quality_scheme_x_routing_matrix.txt

.PHONY: test test-faults test-sharded bench bench-smoke bench-reflection \
	bench-gate bench-scale bench-pipeline-test profile clean-cache lint \
	sanitize-smoke typecheck

# Tier-1 gate: the full unit/integration/property suite.
test:
	$(PYPATH) $(PY) -m pytest -x -q

# Determinism/invariant linter (in-tree, zero dependencies beyond stdlib).
# Every run checks every file (~4 s over src and tests; no result cache).
# Exit 1 = findings; suppress individual lines with
# `# repro-lint: disable=<rule>` (see DESIGN.md §9/§13); unused
# suppressions are themselves findings (W1). Bare `except:` is ruff's
# E722 (`ruff check src tests`, run in CI).
lint:
	$(PYPATH) $(PY) -m repro.lint src tests

# Runtime-invariant smoke: the SimSanitizer unit suite plus the golden and
# batched-engine equivalence pins re-run under REPRO_SANITIZE=1 — the
# instrumented engine must reproduce every pinned result with zero reports.
# The batched pins also run sanitized: that is what catches a marking draw
# on a stream another package owns. All seven exact-engine pins run
# sanitized too, since the exact engine defers channel completion events.
sanitize-smoke:
	$(PYPATH) $(PY) -m pytest tests/test_sanitize.py -x -q
	$(PYPATH) $(PY) -m pytest -m sanitize -x -q
	REPRO_SANITIZE=1 $(PYPATH) $(PY) -m pytest tests/test_batched_golden.py \
		tests/test_golden_equivalence.py -x -q
	@echo "sanitize-smoke OK: pins hold under REPRO_SANITIZE=1"

# Strict typing gate over the public orchestration surface (repro.core,
# repro.registry, repro.runner, repro.faults; config in pyproject.toml).
# The dev container intentionally ships without mypy — CI installs it —
# so a missing mypy skips with a notice while a failing mypy still fails.
typecheck:
	@if $(PY) -c "import mypy" 2>/dev/null; then \
		$(PYPATH) $(PY) -m mypy; \
	else \
		echo "typecheck: mypy not installed locally; runs in CI"; \
	fi

# Robustness smoke: the fault/watchdog/hardened-runner suites, then a tiny
# end-to-end campaign on a 4x4 mesh driven through the CLI (seeded random
# link flaps under a wall-clock watchdog). Fast enough for every push.
test-faults:
	$(PYPATH) $(PY) -m pytest tests/test_faults_campaign.py \
		tests/test_faults_injector.py tests/test_engine_watchdog.py \
		tests/test_runner_hardening.py -x -q
	$(PYPATH) $(PY) -m repro experiment --topology mesh --dims 4 4 \
		--routing fully-adaptive --duration 1.0 \
		--fault-rate 0.2 --fault-downtime 0.5 --timeout 120
	@echo "test-faults OK: campaign completed under watchdog"

# Benchmark regression gate: delete the fresh results (so stale numbers can
# never pass), run the exact, batched, sharded and victim-decode suites —
# each records into benchmarks/results/BENCH.json — then compare against
# the committed baseline benchmarks/BENCH.json. Fails when a metric drops
# below its stored bound (0.85x fabric, 0.7x victim decode) or a speedup
# floor is missed: batched >= 8.5x exact, sharded >= 1.7x batched (only on
# hosts with >= 4 cores), columnar victim decode >= 2x per-packet.
bench-gate:
	rm -f benchmarks/results/BENCH.json
	$(PYPATH) $(PY) -m pytest benchmarks/bench_fabric_throughput.py \
		benchmarks/bench_fabric_batched.py benchmarks/bench_fabric_sharded.py \
		benchmarks/bench_victim_analysis.py -q
	$(PYPATH) $(PY) benchmarks/gate.py

# Table 3 at paper scale: DDPM floods on the 16x16x32 mesh and the
# 2^16-node hypercube on the batched engine, which must identify every
# attacker, plus the identification-cost sweep up to a 128x128 mesh and a
# 1024-node exact-engine flood. Seconds; rewrites the claim_scalability_*
# artifacts in benchmarks/results/.
bench-scale:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_claim_scalability.py -x -q

# Sharded-engine smoke: the dedicated unit file plus the partition
# properties and the sharded-vs-batched identity matrix.
test-sharded:
	$(PYPATH) $(PY) -m pytest tests/test_sharded_engine.py \
		tests/test_topology_partition.py \
		tests/test_properties_batched_equivalence.py -x -q
	@echo "test-sharded OK: identity matrix and partition properties hold"

# Pipeline-benchmark self-tests: the harness arithmetic (spans, compare)
# plus engine smoke runs that check the traced replica equals the real
# experiment and the sharded engine equals the batched one. Seconds, where
# the full benchmark (BENCHMARK.json) takes most of an hour.
bench-pipeline-test:
	$(PYPATH) $(PY) -m pytest benchmarks/pipeline/test_pipeline_bench.py -x -q

# Event-level profile of the standard 64-node torus workload: top-10
# labels/callsites by cumulative wall-clock time inside callbacks.
profile:
	$(PYPATH) $(PY) -m repro experiment --topology torus --dims 8 8 \
		--routing fully-adaptive --profile

# Full reproduction log: every paper table/figure benchmark.
bench:
	$(PYPATH) $(PY) -m pytest benchmarks/ --benchmark-only

# Quick-mode smoke: one claim benchmark, run cold then warm against a
# scratch cache. The second pass must perform zero simulations — the
# report line in the A3 artifact says "simulated 0" — which exercises
# the runner + cache end to end in seconds.
bench-smoke:
	rm -rf $(SMOKE_CACHE)
	REPRO_BENCH_CACHE=$(SMOKE_CACHE) $(PYPATH) $(PY) -m pytest \
		benchmarks/bench_claim_adaptive_routing.py -x -q
	REPRO_BENCH_CACHE=$(SMOKE_CACHE) REPRO_BENCH_JOBS=2 $(PYPATH) $(PY) -m pytest \
		benchmarks/bench_claim_adaptive_routing.py::test_claim_a3_scheme_routing_matrix -x -q
	grep -q "simulated 0" $(A3_RESULT)
	rm -rf $(SMOKE_CACHE)
	@echo "bench-smoke OK: warm cache re-run simulated nothing"

# Attack-scenario smoke: the E6 reflection/pulsing/mixed study plus a tiny
# declarative campaign driven end to end through the CLI's --attack flags.
bench-reflection:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_extension_reflection.py \
		--benchmark-only -x -q
	$(PYPATH) $(PY) -m repro experiment --topology torus --dims 4 4 \
		--routing fully-adaptive --duration 1.0 \
		--attack reflection \
		--attack-params '{"num_attackers": 1, "num_reflectors": 2, "request_rate": 10.0, "duration": 1.0}'
	@echo "bench-reflection OK: E6 study and CLI scenario completed"

clean-cache:
	rm -rf $(SMOKE_CACHE) .repro-cache
