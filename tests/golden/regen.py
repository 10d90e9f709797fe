"""Regenerate the golden CSVs byte-for-byte from the shipped CLI configs.

``PYTHONPATH=src python tests/golden/regen.py`` rewrites every golden file;
with ``--diff`` it writes nothing and lists each cell that would move as
file, row, column and old -> new.  ``CONFIGS`` is also what
``tests/test_cli.py::TestGoldenFiles`` runs.
"""

import argparse
import difflib
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

    Rows are aligned with ``difflib.SequenceMatcher``, so a row inserted or
    removed is listed once as added or removed and the rows after it keep
    their partners.  Rows count data lines from 1 (in ``new``, or in ``old``
    for a removed row) and changed ones are tagged with their first cell.
    """
    old_rows = [line.split(",") for line in old.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    if old_rows[:1] != new_rows[:1]:
        return [f"{name} header: {','.join(old_rows[0]) if old_rows else ''} -> {','.join(new_rows[0])}"]
    header = new_rows[0]
    old_lines, new_lines = old.splitlines()[1:], new.splitlines()[1:]
    lines = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False).get_opcodes():
        if tag == "equal":
            continue
        paired = min(i2 - i1, j2 - j1)  # a replaced block pairs its rows in order
        for i, j in zip(range(i1 + 1, i1 + 1 + paired), range(j1 + 1, j1 + 1 + paired)):
            for col, a, b in zip(header, old_rows[i], new_rows[j]):
                if a != b:
                    lines.append(f"{name} row {j} ({header[0]}={new_rows[j][0]}) {col}: {a} -> {b}")
        lines += [f"{name} row {i} removed: {','.join(old_rows[i])}" for i in range(i1 + 1 + paired, i2 + 1)]
        lines += [f"{name} row {j} added: {','.join(new_rows[j])}" for j in range(j1 + 1 + paired, j2 + 1)]
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
