"""Times one set-up of a workload in a fresh interpreter.

Set-up is importing the library, building every cell's instance and
building its initial guess.  Prints one JSON object with the elapsed
seconds, the times of the host-speed loop run right after (see
hostspeed.py), and a digest of the inputs, so the caller can check that
the set-up it timed built the inputs it solves.

    python3 perfbench/setup_probe.py --workload NAME --seed N
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

LOOPS = 4


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    inputs = workloads.workload_inputs(workloads.WORKLOADS[args.workload], args.seed)
    elapsed = perf_counter() - START
    loops = [hostspeed.loop_s() for _ in range(LOOPS)]
    print(json.dumps({"setup_s": elapsed, "loop_s": loops, "digest": workloads.digest(inputs)}))


if __name__ == "__main__":
    main()
