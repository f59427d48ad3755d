"""One fresh process that does a workload's set-up and exits.

    python3 perfbench/setup_probe.py <workload> <seed> <probe> <probes>

run.py times it from spawn to exit: interpreter start, `import minksurf.cli`
and the construction of the norms and surfaces one process of the workload
uses before its first operation (see workloads.setup).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (the script's own directory is on sys.path)

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
