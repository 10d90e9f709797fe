"""Acceptance criterion 3's split twin Fock loop, run the way a library user runs it.

Usage (with ``src`` on ``PYTHONPATH``): ``python3 perfbench/sweep.py OUT.json``

Each row also records the wall and CPU seconds its n took, so that the runner
can time the sweep part by part (see ``run.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from steerkit.assemblage import steering_witness
from steerkit.experiments import split_dicke_assemblage
from steerkit.states import spin_ops


def sweep(out: str) -> None:
    """Witness of the split twin Fock state for every even n from 4 to 200."""
    rows = []
    for n in range(4, 201, 2):
        half = n // 2
        t0, c0 = time.perf_counter(), time.process_time()
        report = steering_witness(split_dicke_assemblage(half, half, half), spin_ops(half).jz)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rows.append(
            {
                "n": n,
                "cond_qfi": report.cond_qfi,
                "cond_var": report.cond_var,
                "var_reduced": report.var_reduced,
                "wall_s": wall,
                "cpu_s": cpu,
            }
        )
    Path(out).write_text(json.dumps(rows), encoding="utf-8")


if __name__ == "__main__":
    sweep(sys.argv[1])
