"""The command line's JSON codec: states, assemblages and observables in, witness reports and sample runs out.

Complex numbers are read as two-element arrays [re, im] of finite numbers.
Schema problems (wrong shape/keys/types, a non-finite number) raise
``SchemaError`` with the offending field path; values that parse but violate
physical invariants raise ``ValidationError`` from the constructors, so the
two failure modes stay distinguishable.  Unknown keys are ignored.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .assemblage import Assemblage, SettingRecord, WitnessReport, make_assemblage
from .linalg import SchemaError, require_density_matrix
from .states import BipartitePureState

if TYPE_CHECKING:  # an annotation only: ``witness`` loads this module but not sampling
    from .sampling import SampleRun


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _size(value) -> bool:
    """A JSON integer >= 1 (``json`` reads true and false as bools, which are ints to Python)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _finite(value) -> bool:
    """A JSON number that is a finite float (``json`` reads NaN, Infinity and 1e400 as non-finite floats)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past float range
        return False


def pair_to_complex(value, path: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(_finite(v) for v in value):
        _fail(path, f"expected a complex number as [re, im] of finite numbers, got {value!r}")
    return complex(value[0], value[1])


def vector_from_json(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        _fail(path, "expected a nonempty list of [re, im] pairs")
    return np.array([pair_to_complex(v, f"{path}[{i}]") for i, v in enumerate(data)])


def matrix_from_json(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        _fail(path, "expected a list of rows")
    width = len(data[0])
    rows = []
    for i, row in enumerate(data):
        if len(row) != width:
            _fail(f"{path}[{i}]", f"ragged row of length {len(row)}, expected {width}")
        rows.append([pair_to_complex(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _require_keys(doc: dict, keys, path: str):
    if not isinstance(doc, dict):
        _fail(path, f"expected an object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            _fail(path, f"missing required key {key!r}")


def state_from_json(doc: dict) -> BipartitePureState:
    _require_keys(doc, ("dims", "amplitudes"), "$")
    dims = doc["dims"]
    if not isinstance(dims, list) or len(dims) != 2 or not all(_size(d) for d in dims):
        _fail("$.dims", f"expected [d_A, d_B] positive integers, got {dims!r}")
    return BipartitePureState(dims=(dims[0], dims[1]), amplitudes=vector_from_json(doc["amplitudes"], "$.amplitudes"))


def density_from_json(doc: dict) -> np.ndarray:
    _require_keys(doc, ("matrix",), "$")
    mat = matrix_from_json(doc["matrix"], "$.matrix")
    if "dim" in doc and mat.shape != (doc["dim"], doc["dim"]):
        _fail("$.matrix", f"shape {mat.shape} does not match declared dim {doc['dim']}")
    return require_density_matrix(mat, name="$.matrix")


def assemblage_from_json(doc: dict) -> Assemblage:
    _require_keys(doc, ("d_b", "settings"), "$")
    if not _size(doc["d_b"]):
        _fail("$.d_b", f"expected a positive integer, got {doc['d_b']!r}")
    if not isinstance(doc["settings"], list) or not doc["settings"]:
        _fail("$.settings", "expected a nonempty list")
    recs = []
    for i, setting in enumerate(doc["settings"]):
        spath = f"$.settings[{i}]"
        _require_keys(setting, ("label", "outcomes"), spath)
        if not isinstance(setting["outcomes"], list) or not setting["outcomes"]:
            _fail(f"{spath}.outcomes", "expected a nonempty list")
        probs, states, labels = [], [], []
        for j, outcome in enumerate(setting["outcomes"]):
            opath = f"{spath}.outcomes[{j}]"
            _require_keys(outcome, ("p", "rho"), opath)
            if not _finite(outcome["p"]):
                _fail(f"{opath}.p", f"expected a finite number, got {outcome['p']!r}")
            probs.append(float(outcome["p"]))
            states.append(matrix_from_json(outcome["rho"], f"{opath}.rho"))
            label = outcome.get("label", str(j))
            if not isinstance(label, str):
                _fail(f"{opath}.label", f"expected a string, got {label!r}")
            labels.append(label)
        recs.append(
            SettingRecord(
                label=str(setting["label"]), probabilities=np.asarray(probs), states=tuple(states),
                outcomes=tuple(labels),
            )
        )
    return make_assemblage(recs, doc["d_b"])


def witness_report_to_json(report: WitnessReport) -> dict:
    return {"type": "witness_report", **dataclasses.asdict(report)}


def sample_run_to_json(run: SampleRun) -> dict:
    return {"type": "sample_run", **dataclasses.asdict(run), "estimates": run.estimates.tolist()}


def load_document(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4,300 digits
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return doc


def load_state(path):
    """Load a bipartite pure state or a density matrix, keyed by 'type'."""
    doc = load_document(path)
    kind = doc.get("type")
    if kind == "bipartite_pure_state":
        return state_from_json(doc)
    if kind == "density_matrix":
        return density_from_json(doc)
    raise SchemaError(f"$.type: expected 'bipartite_pure_state' or 'density_matrix', got {kind!r}")


def load_observable(path) -> np.ndarray:
    doc = load_document(path)
    _require_keys(doc, ("matrix",), "$")
    return matrix_from_json(doc["matrix"], "$.matrix")
