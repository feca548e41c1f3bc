"""Set-up time probe, run in a fresh interpreter per sample.

    python3 benchmarks/pipeline/setup_probe.py <workload> <seed>

Prints the seconds from interpreter start-up (before ``import repro``)
through the first ``Cluster.from_config`` and the victim-analysis
construction (DPM signature table included) of the workload's first cell.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import repro  # noqa: E402,F401
from repro.core.cluster import Cluster  # noqa: E402
from repro.core.experiment import _victim_analysis_for  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(argv: list) -> int:
    config = WORKLOADS[argv[1]].configs(int(argv[2]))[0]
    cluster = Cluster.from_config(config)
    victim = config.victim if config.victim is not None else cluster.default_victim()
    _victim_analysis_for(cluster, victim)
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
