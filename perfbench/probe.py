"""Set-up probe: import regradius and build one workload's mappings, then exit.

    python3 perfbench/probe.py INPUTS.json

Prints the system-wide monotonic clock once the mappings are built; run.py
takes the time from just before it started this process to that reading.
"""

import json
import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    workloads.import_program(Path(__file__).resolve().parent.parent / "src")
    workloads.build(json.loads(Path(sys.argv[1]).read_text()))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main()
