"""Shared benchmark-harness fixtures.

Every benchmark regenerates one of the paper's tables/figures/claims and
reports it two ways: printed to the terminal (so ``pytest benchmarks/
--benchmark-only`` output doubles as the reproduction log) and written to
``benchmarks/results/<name>.txt`` for EXPERIMENTS.md. The gated numbers of
the throughput and victim-decode suites also go to one machine-readable
file, ``benchmarks/results/BENCH.json``, through ``record_bench``;
``benchmarks/gate.py`` checks it against the committed ``BENCH.json``.

Config-driven benchmarks go through the session ``runner`` fixture — a
:class:`repro.runner.ParallelRunner` configured by environment:

``REPRO_BENCH_JOBS``
    Worker processes (default 1; any value produces identical results —
    the runner's determinism contract).
``REPRO_BENCH_CACHE``
    Result-cache directory. Unset/empty/"off" disables caching (the
    default, so recorded results always reflect the current code); when
    set, a repeated benchmark run simulates nothing — its report shows
    ``simulated 0``.
"""

import json
import os
import re
from pathlib import Path

import pytest

from repro.runner import ParallelRunner, ResultCache

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH.json"


@pytest.fixture
def report():
    """report(title, text): print and persist one reproduction artifact."""

    def _report(title: str, text: str) -> Path:
        banner = f"\n===== {title} =====\n{text}\n"
        print(banner)
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")[:80]
        path = RESULTS_DIR / f"{slug}.txt"
        path.write_text(f"{title}\n\n{text}\n")
        return path

    return _report


@pytest.fixture
def record_bench():
    """record_bench(metrics): merge gated metrics into results/BENCH.json.

    The file is a flat map from metric name (``exact/events_per_sec``,
    ``victim/ddpm/batched_marks_per_sec``, ...) to value, plus the host's
    ``cpu_count``, which the gate needs for core-count-aware floors.
    """

    def _record(metrics: dict) -> None:
        data = (json.loads(BENCH_JSON.read_text())
                if BENCH_JSON.exists() else {})
        data.update(metrics, cpu_count=os.cpu_count() or 1)
        RESULTS_DIR.mkdir(exist_ok=True)
        BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True)
                              + "\n")

    return _record


@pytest.fixture(scope="session")
def runner():
    """Environment-configured experiment runner shared by the session."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
    cache_dir = os.environ.get("REPRO_BENCH_CACHE", "")
    cache = (ResultCache(cache_dir)
             if cache_dir and cache_dir.lower() not in ("off", "none", "0")
             else None)
    return ParallelRunner(n_jobs=jobs, cache=cache)
