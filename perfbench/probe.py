"""Set-up probe for the in-process workloads, run as a fresh interpreter.

``python3 perfbench/probe.py <workload>`` imports the workload's public entry
point and makes one small first call, then exits; the benchmark times the
whole process as the workload's set-up cost.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cells import CELLS, call_seed  # noqa: E402

if __name__ == "__main__":
    workload = CELLS[sys.argv[1]]
    workload.call(call_seed(0, 999), workload.warmup_writes)
