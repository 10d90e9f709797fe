"""Regenerate the golden CSVs byte-for-byte from the shipped CLI configs.

``PYTHONPATH=src python tests/golden/regen.py`` rewrites every golden file;
with ``--diff`` it writes nothing and lists each cell that would move as
file, row, column and old -> new.  ``CONFIGS`` is also what
``tests/test_cli.py::TestGoldenFiles`` runs.
"""

import argparse
import tempfile
from pathlib import Path

from steerkit.cli import main

CONFIGS = {
    "ghz.csv": ["ghz", "--n", "1:4"],
    "ghz_noise.csv": ["ghz-noise", "--n", "2:3", "--noise", "0.2:0.8:0.3"],
    "split_dicke.csv": ["split-dicke", "--n", "8", "--k", "4"],
    "split_dicke_partition.csv": ["split-dicke-partition", "--n", "10", "--k", "0:10:2", "--p", "0.5"],
    "cat.csv": ["cat", "--alpha", "0:1:0.25"],
    "multigen.csv": ["multigen", "--d", "2:4"],
    "quantify.csv": ["quantify", "--step", "0.25"],
    "estimate.csv": ["estimate", "--shots", "1000", "--reps", "25", "--seed", "123"],
}


def moved_cells(name: str, old: str, new: str) -> list[str]:
    """One line per cell of table ``name`` that differs between its ``old`` and ``new`` text.

    Rows count data lines from 1 and are tagged with their first cell.
    """
    old_rows = [line.split(",") for line in old.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    if old_rows[:1] != new_rows[:1]:
        return [f"{name} header: {','.join(old_rows[0]) if old_rows else ''} -> {','.join(new_rows[0])}"]
    header = new_rows[0]
    lines = []
    for r in range(1, max(len(old_rows), len(new_rows))):
        if r >= len(old_rows) or r >= len(new_rows):
            side, row = ("added", new_rows[r]) if r >= len(old_rows) else ("removed", old_rows[r])
            lines.append(f"{name} row {r} {side}: {','.join(row)}")
            continue
        for col, a, b in zip(header, old_rows[r], new_rows[r]):
            if a != b:
                lines.append(f"{name} row {r} ({header[0]}={new_rows[r][0]}) {col}: {a} -> {b}")
    return lines


def main_regen(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true", help="list moved cells instead of writing")
    args = parser.parse_args(argv)
    here = Path(__file__).parent
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            out = Path(tmp) / name if args.diff else here / name
            old = (here / name).read_text() if args.diff and (here / name).exists() else ""
            code = main(config + ["--out", str(out)])
            if code != 0:
                raise SystemExit(f"{name}: steerkit exited with {code}")
            if args.diff:
                for line in moved_cells(name, old, out.read_text()):
                    print(line)
            else:
                print("wrote", name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_regen())
