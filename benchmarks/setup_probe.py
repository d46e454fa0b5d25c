"""Set-up probe: a fresh process that imports grs and builds one workload's
inputs, then prints how long that took since the parent spawned it.

    python3 benchmarks/setup_probe.py WORKLOAD SEED SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before the
spawn; that clock is system-wide, so the difference counts interpreter
start-up, ``import grs`` and input generation.
"""

import sys
import time


def main() -> int:
    workload, seed, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    import paths

    paths.use_repo_grs()
    import workloads

    workloads.WORKLOADS[workload](seed)
    print(time.clock_gettime(time.CLOCK_MONOTONIC) - spawned)
    return 0


if __name__ == "__main__":
    sys.exit(main())
