"""Command-line reproduction of the worked examples as CSV/JSON tables.

Exit codes: 0 success, 2 validation/schema error (a size over its documented
limit, a malformed or non-finite number included), 3 numeric failure or
running out of memory.
Ranges use the inclusive ``start:stop:step`` syntax (endpoints kept within
half a step) and hold at most ``MAX_RANGE_POINTS`` points; range bounds and
every numeric option must be finite.  CSV output uses '.' decimals, ','
separators and 15 significant digits.

Start-up: this module loads only the standard library and builds the parser.
``main`` imports numpy and the error classes once argparse has accepted the
command line, so ``--help`` and usage errors (exit 2) return without loading
numpy, and each command imports the steerkit modules it calls: ``_table``, the
one runner of the table commands, loads ``experiments`` and looks up the rows
function its subcommand names there; ``witness`` loads neither ``experiments``
nor ``sampling``.  A program that has imported
numpy already gains nothing from the deferral and gets every submodule loaded
with this one.

BLAS threads: the paper's matrices are at most a few hundred wide, where a
second BLAS thread only spins, so the command line runs with one BLAS/OpenMP
thread unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` is set.  The default only takes effect before numpy is
loaded, so it is left alone if numpy was imported first.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules:
    # Nothing left to defer; perfbench/spans.py reads every submodule right after importing this one.
    from . import experiments, sampling, serialize  # noqa: F401
elif not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

if TYPE_CHECKING:
    from .assemblage import Assemblage
    from .states import BipartitePureState

MAX_RANGE_POINTS = 100_000  # points in one range, checked before its list is built


def format_cell(value) -> str:
    if isinstance(value, float):  # most cells (np.float64 is a float), so tested first
        return f"{float(value):.15g}"
    if value is None or value == "":
        return ""
    if hasattr(value, "item"):  # the other numpy scalars (np.bool_, np.int64, np.float32), as Python ones
        return format_cell(value.item())
    if isinstance(value, int):  # bool included: True -> "1"
        return str(int(value))
    return str(value)


def _write(text: str, out) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def write_csv(header, rows, out) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    _write("\n".join(lines) + "\n", out)


def write_json_doc(doc, out) -> None:
    _write(json.dumps(doc, default=float, indent=2) + "\n", out)


def write_json_table(header, rows, out) -> None:
    doc = {"columns": list(header), "rows": [[None if v == "" else v for v in row] for row in rows]}
    write_json_doc(doc, out)


def _invalid(message: str) -> Exception:
    from .linalg import ValidationError

    return ValidationError(message)


def _number(part: str, kind, text: str):
    """One finite number, ``text`` itself or a part of the range ``text``."""
    where = "" if part == text else f" in {text!r}"
    try:
        value = kind(part)
    except ValueError:
        raise _invalid(f"cannot parse {part!r}{where} as {'an integer' if kind is int else 'a number'}") from None
    if not math.isfinite(value):
        raise _invalid(f"{part!r}{where} is not finite")
    return value


def parse_range(text: str, kind=float):
    """Inclusive start:stop:step range (or a single value) of at most ``MAX_RANGE_POINTS`` points."""
    parts = str(text).split(":")
    if len(parts) == 1:
        return [_number(parts[0], kind, text)]
    if len(parts) > 3:
        raise _invalid(f"cannot parse range {text!r}; expected start:stop:step")
    start, stop, *step = (_number(part, float, text) for part in parts)
    step = step[0] if step else 1.0
    if step <= 0:
        raise _invalid(f"range step must be positive in {text!r}")
    points = (stop - start) / step + 1.0  # the range holds floor(points + 0.5) points
    if points >= MAX_RANGE_POINTS + 0.5:
        raise _invalid(f"range {text!r} has {points:.6g} points, over the limit MAX_RANGE_POINTS = {MAX_RANGE_POINTS}")
    values = []
    x = start
    while x <= stop + step / 2.0:
        values.append(kind(round(x, 12)) if kind is float else kind(round(x)))
        if x + step == x:  # the loop would never end
            raise _invalid(f"range step in {text!r} is too small to move past {x:g}")
        x += step
    if not values:
        raise _invalid(f"range {text!r} is empty")
    return values


def _single(text: str, option: str, command: str) -> int:
    values = parse_range(text, int)
    if len(values) != 1:
        raise _invalid(f"{command} takes a single {option}")
    return values[0]


def _table(args) -> None:
    """Call the ``experiments`` rows function the subcommand names on the arguments ``args.shape`` makes
    of its options, and write the table as CSV or JSON."""
    from . import experiments

    header, rows = getattr(experiments, args.rows)(*args.shape(args))
    (write_json_table if args.format == "json" else write_csv)(header, rows, args.out)


def _ghz_noise(args):
    if args.noise is None:
        raise _invalid("ghz-noise needs --noise (or --p) with the mixing probability")
    return parse_range(args.n, int), parse_range(args.noise), args.phi


def _split_dicke(args):
    n = _single(args.n, "--n", "split-dicke")
    return n, n // 2 if args.k is None else _single(args.k, "--k", "split-dicke")


def _split_dicke_partition(args):
    n = _single(args.n, "--n", "split-dicke-partition")
    return n, args.p, list(range(n + 1)) if args.k is None else parse_range(args.k, int)


def _cmd_estimate(args):
    from dataclasses import fields

    from .experiments import estimate_run

    check = estimate_run(theta=args.theta, shots=args.shots, reps=args.reps, seed=args.seed)
    if args.format == "json":
        from .serialize import sample_run_to_json

        doc = sample_run_to_json(check.run)
        doc.update((f.name, getattr(check, f.name)) for f in fields(check) if f.name != "run")
        write_json_doc(doc, args.out)
        return
    # the summary rows: every field of the run, then of the check, in field order, less the estimates
    # (the rows above), the nested run and the setting label (each summary value must parse as a number)
    rows = [[i, float(v)] for i, v in enumerate(check.run.estimates)]
    skip = ("estimates", "run", "setting")
    rows += [[f"summary:{f.name}", getattr(x, f.name)] for x in (check.run, check) for f in fields(x) if f.name not in skip]
    write_csv(["rep", "estimate"], rows, args.out)


def _witness_input(path: str) -> Assemblage | BipartitePureState:
    """Parse the witness input once and dispatch on its 'type'."""
    from . import serialize

    doc = serialize.load_document(path)
    kind = doc.get("type")
    if kind == "assemblage":
        return serialize.assemblage_from_json(doc)
    if kind == "bipartite_pure_state":
        return serialize.state_from_json(doc)
    if kind == "density_matrix":
        raise _invalid(
            "witness needs a bipartite pure state or an assemblage; a bare density "
            "matrix does not determine Alice's settings"
        )
    raise serialize.SchemaError(f"$.type: expected 'assemblage' or 'bipartite_pure_state', got {kind!r}")


def _cmd_witness(args):
    from .assemblage import Assemblage, steering_witness
    from .linalg import require_hermitian
    from .pure import optimal_assemblage, s_avg_pure, s_max_lower_bound, s_max_pure, schmidt
    from .serialize import load_observable, witness_report_to_json

    loaded = _witness_input(args.input)
    observable = require_hermitian(load_observable(args.observable), name="observable")
    if isinstance(loaded, Assemblage):
        asm = loaded
        quantifiers = {}
        if args.quantify:
            quantifiers["s_lower_bound"] = s_max_lower_bound(asm)
    else:
        asm = optimal_assemblage(loaded, observable)
        spectrum = schmidt(loaded).coefficients
        quantifiers = {"s_max_pure": s_max_pure(spectrum), "s_avg_pure": s_avg_pure(spectrum)}
    report = steering_witness(asm, observable)
    doc = witness_report_to_json(report)
    doc.update(quantifiers)
    if args.format == "json":
        write_json_doc(doc, args.out)
        return
    header = ["quantity", "value"]
    rows = [[key, value] for key, value in doc.items() if key != "type"]
    write_csv(header, rows, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Metrological EPR-steering witnesses from the quantum Fisher information",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def table(name, about, rows, shape):
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=_table, rows=rows, shape=shape)
        return p

    p = table("ghz", "pure GHZ conditional QFI/variance table", "ghz_rows", lambda a: (parse_range(a.n, int), a.phi))
    p.add_argument("--n", required=True, help="Bob qubit count or range start:stop[:step]")
    p.add_argument("--phi", type=float, default=0.0)

    p = table("ghz-noise", "GHZ mixed with white noise", "ghz_noise_rows", _ghz_noise)
    p.add_argument("--n", required=True)
    p.add_argument("--noise", "--p", help="mixing probability p or range")
    p.add_argument("--phi", type=float, default=0.0)

    p = table("split-dicke", "deterministically split Dicke state table", "split_dicke_rows", _split_dicke)
    p.add_argument("--n", required=True, help="total (even) particle number")
    p.add_argument("--k", help="total excitations (default n/2)")

    p = table(
        "split-dicke-partition", "beam-splitter split Dicke table", "split_dicke_partition_rows", _split_dicke_partition
    )
    p.add_argument("--n", required=True)
    p.add_argument("--k", help="excitation number or range (default 0:n)")
    p.add_argument("--p", type=float, default=0.5, help="splitting ratio (default 0.5)")

    p = table("cat", "hybrid qubit-oscillator cat state table", "cat_rows", lambda a: (parse_range(a.alpha),))
    p.add_argument("--alpha", required=True, help="coherent amplitude or range")

    p = table("quantify", "pure-state quantifiers on the d=3 simplex", "quantify_rows", lambda a: (a.step,))
    p.add_argument("--step", type=float, default=0.01, help="grid spacing; must divide 1 (default 0.01)")

    p = table(
        "multigen", "multi-generator witness for maximally entangled states", "multigen_rows",
        lambda a: (parse_range(a.d, int),),
    )
    p.add_argument("--d", required=True, help="Bob dimension or range")

    p = sub.add_parser("estimate", help="Monte Carlo phase-estimator validation (Bell strategy)")
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("witness", help="witness evaluation on a user-supplied state/assemblage")
    p.add_argument("input", help="JSON file with a bipartite pure state or assemblage")
    p.add_argument("--observable", required=True, help="JSON file with the generator matrix")
    p.add_argument(
        "--quantify",
        action="store_true",
        help="add the exact maximal violation over the supplied settings (assemblage input)",
    )
    p.set_defaults(func=_cmd_witness)

    for p in sub.choices.values():
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The command line is accepted: only now load numpy and the package.
    import numpy as np

    from .linalg import NumericError, SchemaError, ValidationError

    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"--{name} must be finite, got {value}")
        args.func(args)
    except (ValidationError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric failure: out of memory ({str(exc) or 'no detail'}); use smaller sizes", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
