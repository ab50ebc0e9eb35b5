"""Time one cold set-up of a workload: import gridshave and build the inputs.

    python perfbench/probe.py WORKLOAD SEED

Prints the seconds from before the import to the built inputs. The source
tree must be on PYTHONPATH.
"""

import sys
import time


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name](seed).setup()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
