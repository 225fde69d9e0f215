"""Set-up of one in-process workload, run as a fresh process.

``run.py`` times this script to measure set-up: interpreter start,
imports, synthesizing every trace the workload reads into the on-disk
trace cache, and loading (on a first run, compiling) the lane kernel.

Usage: python3 perfbench/prepare.py WORKLOAD SEED
"""

import sys


def main(workload: str, seed: int) -> None:
    import suite

    suite.warm_inputs(suite.IN_PROCESS[workload].grids(seed))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
