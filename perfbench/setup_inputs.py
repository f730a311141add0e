"""Set-up step timed by ``setup_s``: import cdboost and make one workload's inputs.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/setup_inputs.py <workload> <seed> <workdir>
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name].prepare(seed, workdir)
