"""Set-up probe: a fresh interpreter imports cpasim, builds one workload's
inputs, and prints ``ready``.  ``run.py`` times it from process start.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

import cpasim  # noqa: F401  (the import is what is timed)
from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    print("ready", flush=True)
