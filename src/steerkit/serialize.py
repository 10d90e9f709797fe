"""JSON input/output for states, assemblages, witness reports and sample runs.

Complex numbers are serialized as two-element arrays [re, im] everywhere.
Schema problems (wrong shape/keys/types) raise ``SchemaError`` with the
offending field path; values that parse but violate physical invariants
raise ``ValidationError`` from the constructors, so the two failure modes
stay distinguishable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .assemblage import Assemblage, SettingRecord, WitnessReport, make_assemblage
from .linalg import SchemaError, ValidationError, require_density_matrix
from .states import BipartitePureState

if TYPE_CHECKING:  # an annotation only: ``witness`` loads this module but not sampling
    from .sampling import SampleRun


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def pair_to_complex(value, path: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        _fail(path, f"expected a complex number as [re, im], got {value!r}")
    return complex(value[0], value[1])


def vector_to_json(vec: np.ndarray) -> list:
    return [complex_to_pair(z) for z in np.asarray(vec, dtype=complex)]


def matrix_to_json(mat: np.ndarray) -> list:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(mat, dtype=complex)]


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


def state_to_json(state: BipartitePureState) -> dict:
    return {
        "type": "bipartite_pure_state",
        "dims": list(state.dims),
        "basis_labels_a": None if state.basis_labels_a is None else [list(l) if isinstance(l, tuple) else l for l in state.basis_labels_a],
        "basis_labels_b": None if state.basis_labels_b is None else [list(l) if isinstance(l, tuple) else l for l in state.basis_labels_b],
        "amplitudes": vector_to_json(state.amplitudes),
    }


def density_to_json(rho: np.ndarray) -> dict:
    return {"type": "density_matrix", "dim": int(rho.shape[0]), "matrix": matrix_to_json(rho)}


def state_from_json(doc: dict, path: str = "$") -> BipartitePureState:
    _require_keys(doc, ("dims", "amplitudes"), path)
    dims = doc["dims"]
    if not isinstance(dims, list) or len(dims) != 2 or not all(isinstance(d, int) for d in dims):
        _fail(f"{path}.dims", f"expected [d_A, d_B] integers, got {dims!r}")
    amps = vector_from_json(doc["amplitudes"], f"{path}.amplitudes")

    def _labels(key):
        raw = doc.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list):
            _fail(f"{path}.{key}", "expected a list of labels")
        return tuple(tuple(l) if isinstance(l, list) else l for l in raw)

    return BipartitePureState(
        dims=(dims[0], dims[1]),
        amplitudes=amps,
        basis_labels_a=_labels("basis_labels_a"),
        basis_labels_b=_labels("basis_labels_b"),
    )


def density_from_json(doc: dict, path: str = "$") -> np.ndarray:
    _require_keys(doc, ("matrix",), path)
    mat = matrix_from_json(doc["matrix"], f"{path}.matrix")
    if "dim" in doc and mat.shape != (doc["dim"], doc["dim"]):
        _fail(f"{path}.matrix", f"shape {mat.shape} does not match declared dim {doc['dim']}")
    return require_density_matrix(mat, name=f"{path}.matrix")


def assemblage_to_json(assemblage: Assemblage) -> dict:
    return {
        "type": "assemblage",
        "d_b": assemblage.d_b,
        "settings": [
            {
                "label": rec.label,
                "outcomes": [
                    {"label": lab, "p": float(p), "rho": matrix_to_json(st.reconstruct())}
                    for lab, p, st in zip(rec.outcomes, rec.probabilities, rec.states)
                ],
            }
            for rec in assemblage.settings
        ],
    }


def assemblage_from_json(doc: dict, path: str = "$") -> Assemblage:
    _require_keys(doc, ("d_b", "settings"), path)
    if not isinstance(doc["d_b"], int) or doc["d_b"] < 1:
        _fail(f"{path}.d_b", f"expected a positive integer, got {doc['d_b']!r}")
    if not isinstance(doc["settings"], list) or not doc["settings"]:
        _fail(f"{path}.settings", "expected a nonempty list")
    recs = []
    for i, setting in enumerate(doc["settings"]):
        spath = f"{path}.settings[{i}]"
        _require_keys(setting, ("label", "outcomes"), spath)
        if not isinstance(setting["outcomes"], list) or not setting["outcomes"]:
            _fail(f"{spath}.outcomes", "expected a nonempty list")
        probs, states, labels = [], [], []
        for j, outcome in enumerate(setting["outcomes"]):
            opath = f"{spath}.outcomes[{j}]"
            _require_keys(outcome, ("p", "rho"), opath)
            if not isinstance(outcome["p"], (int, float)) or isinstance(outcome["p"], bool):
                _fail(f"{opath}.p", f"expected a number, got {outcome['p']!r}")
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
    return {
        "type": "witness_report",
        "cond_qfi": report.cond_qfi,
        "cond_var": report.cond_var,
        "delta": report.delta,
        "qfi_reduced": report.qfi_reduced,
        "var_reduced": report.var_reduced,
        "argmax_setting": report.argmax_setting,
        "argmin_setting": report.argmin_setting,
        "steering": report.steering,
    }


def sample_run_to_json(run: SampleRun) -> dict:
    return {
        "type": "sample_run",
        "seed": run.seed,
        "n_shots": run.n_shots,
        "theta_true": run.theta_true,
        "estimates": [float(v) for v in run.estimates],
        "empirical_var": run.empirical_var,
        "predicted_var": run.predicted_var,
        "derivative": run.derivative,
        "var_m_est": run.var_m_est,
        "setting": run.setting,
    }


def save_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def load_document(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
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


def load_assemblage(path) -> Assemblage:
    doc = load_document(path)
    if doc.get("type") != "assemblage":
        raise SchemaError(f"$.type: expected 'assemblage', got {doc.get('type')!r}")
    return assemblage_from_json(doc)


def load_observable(path) -> np.ndarray:
    doc = load_document(path)
    _require_keys(doc, ("matrix",), "$")
    return matrix_from_json(doc["matrix"], "$.matrix")


__all__ = [
    "SchemaError",
    "ValidationError",
    "assemblage_from_json",
    "assemblage_to_json",
    "complex_to_pair",
    "density_from_json",
    "density_to_json",
    "load_assemblage",
    "load_document",
    "load_observable",
    "load_state",
    "matrix_from_json",
    "matrix_to_json",
    "pair_to_complex",
    "sample_run_to_json",
    "save_json",
    "state_from_json",
    "state_to_json",
    "vector_from_json",
    "vector_to_json",
    "witness_report_to_json",
]
