"""One set-up sample: ``import susyq`` plus building the run's models.

Run in a fresh interpreter by run.py (``python3 perfbench/setup_probe.py
WORKLOAD SEED``); prints the seconds spent importing numpy, then the seconds
spent importing susyq and building the models.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (standard library only)


def main(workload: str, seed: int) -> tuple:
    specs = workloads.model_specs(workloads.op_list(workload, seed))
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import susyq.cli  # noqa: F401  (the CLI ops' entry point)

    import checks

    for src in specs:
        checks.build_source(src)
    return t1 - t0, time.perf_counter() - t1


if __name__ == "__main__":
    print(*map(repr, main(sys.argv[1], int(sys.argv[2]))))
