"""Set-up probe: import porthunt, build one workload's inputs, exit.

    python3 perfbench/probe.py <workload> <seed>

run.py times whole runs of this script to measure set-up time as a user of
the CLI pays it on every invocation: interpreter start, ``import porthunt``,
instance generation and graph construction.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench.workloads import WORKLOADS

    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
