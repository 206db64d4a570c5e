"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <scratch dir>

Prints the seconds from this script's first statement until ``repro``
is imported, every program of the workload's batch is built and, for
the service workload, the service root is opened.  Interpreter start-up
happens before the first statement, so it is not included.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](0, Path(sys.argv[2])).build()
print(time.perf_counter() - _START)
