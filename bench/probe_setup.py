"""Set-up probe: prints "ready" once kafw is imported and a workload is built.

    python3 bench/probe_setup.py <workload> <seed>

bench/run.py times fresh runs of this script to measure set-up time.
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
