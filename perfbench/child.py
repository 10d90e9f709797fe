"""Run one benchmark operation with spans recorded, then write the spans out.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py SPANS.npz cli STEERKIT_ARGS...
    python3 perfbench/child.py SPANS.npz sweep OUT.json
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    out, kind, *args = argv
    recorder = spans.Recorder()
    recorder.install()
    if kind == "sweep":
        import sweep

        code = recorder.run(sweep.sweep, *args) or 0
    else:
        import steerkit.cli

        code = recorder.run(steerkit.cli.main, args)
    recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
