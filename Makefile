# Developer entry points. Everything runs from the repo root and uses the
# src/ layout directly (no install needed).

PY      ?= python
PYPATH  := PYTHONPATH=src
SMOKE_CACHE := .bench-smoke-cache
A3_RESULT   := benchmarks/results/claim_a3_identification_quality_scheme_x_routing_matrix.txt

.PHONY: test test-faults test-sharded bench bench-smoke bench-reflection \
	bench-throughput bench-batched bench-sharded bench-victim \
	bench-pipeline-test profile clean-cache lint lint-sarif sanitize-smoke \
	typecheck

# Tier-1 gate: the full unit/integration/property suite.
test:
	$(PYPATH) $(PY) -m pytest -x -q

# Determinism/invariant linter (in-tree, zero dependencies beyond stdlib).
# Incremental: per-file results are cached by content hash in
# .repro-lint-cache.json, so re-runs on an unchanged tree are near-instant.
# Exit 1 = findings; suppress individual lines with
# `# repro-lint: disable=<rule>` (see DESIGN.md §9/§13); unused
# suppressions are themselves findings (W1).
lint:
	$(PYPATH) $(PY) -m repro.lint src tests

# Same run, emitted as SARIF 2.1.0 (lint.sarif) for code-scanning upload.
lint-sarif:
	$(PYPATH) $(PY) -m repro.lint src tests --format sarif > lint.sarif; \
	status=$$?; echo "wrote lint.sarif"; exit $$status

# Runtime-invariant smoke: the SimSanitizer unit suite plus the golden and
# batched-engine equivalence pins re-run under REPRO_SANITIZE=1 — the
# instrumented engine must reproduce every pinned result with zero reports.
# The batched pins also run sanitized: that is what catches a marking draw
# on a stream another package owns.
sanitize-smoke:
	$(PYPATH) $(PY) -m pytest tests/test_sanitize.py -x -q
	$(PYPATH) $(PY) -m pytest -m sanitize -x -q
	REPRO_SANITIZE=1 $(PYPATH) $(PY) -m pytest tests/test_batched_golden.py -x -q
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

# Hot-path regression gate: measure fabric throughput and compare against
# the committed baseline (benchmarks/BENCH_throughput.json); fails on a
# >30% drop (override with REPRO_BENCH_TOLERANCE).
bench-throughput:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_fabric_throughput.py -q
	$(PYPATH) $(PY) benchmarks/check_throughput.py

# Batched cohort-engine gate: measure both engines on the matched workload
# (plus the 64x64-torus flood), compare against the committed baselines,
# and enforce the >= 10x batched-vs-exact packets/s floor (tolerance-scaled
# via REPRO_BENCH_TOLERANCE; see benchmarks/check_throughput.py).
bench-batched:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_fabric_throughput.py \
		benchmarks/bench_fabric_batched.py -q
	$(PYPATH) $(PY) benchmarks/check_throughput.py

# Sharded multi-process engine gate: the 64x64-torus flood at 4 shards with
# a same-run batched reference, compared against the committed baseline and
# held to the >= 2x sharded-vs-batched packets/s floor — enforced only when
# the host has >= 4 cores (loud skip otherwise; see check_throughput.py).
bench-sharded:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_fabric_sharded.py -q
	$(PYPATH) $(PY) benchmarks/check_throughput.py

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

# Victim-decode regression gate: measure per-scheme mark decode throughput
# (per-packet vs columnar observe_batch) and compare against the committed
# baseline (benchmarks/BENCH_victim.json); also enforces the batched-path
# speedup floor (REPRO_BENCH_SPEEDUP_FLOOR, default 2x).
bench-victim:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_victim_analysis.py -q
	$(PYPATH) $(PY) benchmarks/check_victim.py

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
	rm -f .repro-lint-cache.json lint.sarif
