"""Output checks.  Each returns a list of problems; an empty list means correct.

The witness checks recompute everything from the generated JSON with plain
numpy, independently of ``steerkit``.  Nothing is compared to golden bytes,
which differ across platforms.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

WITNESS_TOL = 1e-9
QFI_EIGEN_CUT = 1e-12


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(abs(ref), 1.0)


def reference_columns(text: str, tol: float) -> list[str]:
    """Every computed column matches its ``*_ref`` column within ``tol``."""
    header, rows = _rows(text)
    pairs = [
        (header.index(col[: -len("_ref")]), i)
        for i, col in enumerate(header)
        if col.endswith("_ref") and col[: -len("_ref")] in header
    ]
    if not pairs or not rows:
        return ["table has no reference columns or no rows"]
    problems = []
    for r, cells in enumerate(rows):
        for val_idx, ref_idx in pairs:
            if cells[ref_idx] == "" or cells[val_idx] == "":
                continue
            val, ref = float(cells[val_idx]), float(cells[ref_idx])
            if not _close(val, ref, tol):
                problems.append(f"row {r}: {header[val_idx]}={val!r} vs {header[ref_idx]}={ref!r}")
    return problems


def quantify_table(text: str) -> list[str]:
    """The d = 3 simplex grid against s_max = lambda_max[diag(p) - p p^T] and the s_avg sum."""
    header, rows = _rows(text)
    if header != ["x", "y", "s_max", "s_avg_scaled"] or len(rows) != 5151:
        return [f"unexpected quantify table shape: {header}, {len(rows)} rows"]
    vals = np.array(rows, dtype=float)
    p = np.stack([vals[:, 0], vals[:, 1], np.clip(1.0 - vals[:, 0] - vals[:, 1], 0.0, None)], axis=1)
    p /= p.sum(axis=1, keepdims=True)
    m = np.einsum("ri,ij->rij", p, np.eye(3)) - p[:, :, None] * p[:, None, :]
    s_max = np.clip(np.linalg.eigvalsh(m)[:, -1], 0.0, None)
    pair = p[:, :, None] + p[:, None, :]
    terms = np.where(pair > 0, p[:, :, None] * p[:, None, :] * (1.0 + 2.0 / np.where(pair > 0, pair, 1.0)), 0.0)
    s_avg = (terms.sum(axis=(1, 2)) - np.einsum("rii->r", terms)) / 8.0
    bad = ~(np.isclose(vals[:, 2], s_max, rtol=0, atol=1e-12) & np.isclose(vals[:, 3], s_avg, rtol=0, atol=1e-12))
    return [f"row {r}: s_max/s_avg off" for r in np.flatnonzero(bad)]


def estimate_table(text: str) -> list[str]:
    """200 estimates whose sample variance the summary repeats, near its prediction."""
    _, rows = _rows(text)
    estimates = np.array([float(v) for k, v in rows if not k.startswith("summary:")])
    summary = {k[len("summary:"):]: float(v) for k, v in rows if k.startswith("summary:")}
    problems = []
    if estimates.size != 200:
        problems.append(f"{estimates.size} estimates, expected 200")
    if estimates.size > 1 and not _close(float(np.var(estimates, ddof=1)), summary["empirical_var"], 1e-9):
        problems.append("empirical_var does not match the estimates")
    # The relative standard error of a 200-sample variance is sqrt(2/199); allow 5 of them.
    if abs(summary["empirical_var"] / summary["predicted_var"] - 1.0) > 5.0 * np.sqrt(2.0 / 199.0):
        problems.append("empirical_var is far from predicted_var")
    if summary["epr_flag"] != 1 or not summary["product"] < summary["bound"]:
        problems.append("the Bell strategy must flag the EPR product test")
    return problems


def twin_fock_sweep(text: str) -> list[str]:
    """Acceptance criterion 3's closed forms for every even n from 4 to 200."""
    rows = json.loads(text)
    if [r["n"] for r in rows] != list(range(4, 201, 2)):
        return ["sweep did not cover n = 4, 6, ..., 200"]
    problems = []
    for r in rows:
        n = r["n"]
        target = n * (n + 4) / 12.0
        if abs(r["cond_qfi"] - target) > 1e-9 * target:
            problems.append(f"n={n}: cond_qfi {r['cond_qfi']!r} != n(n+4)/12")
        if abs(r["var_reduced"] - target / 4.0) > 1e-9 * target / 4.0:
            problems.append(f"n={n}: var_reduced {r['var_reduced']!r} != n(n+4)/48")
        if abs(r["cond_var"]) > 1e-12:
            problems.append(f"n={n}: |cond_var| {r['cond_var']!r} > 1e-12")
    return problems


# ---------------------------------------------------------------------------
# Independent witness arithmetic
# ---------------------------------------------------------------------------

def _complex(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _variance(rho: np.ndarray, h: np.ndarray) -> float:
    return float(np.trace(rho @ h @ h).real - np.trace(rho @ h).real ** 2)


def _qfi_weights(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, vecs = np.linalg.eigh(rho)
    pair = lam[:, None] + lam[None, :]
    live = pair > QFI_EIGEN_CUT
    w = np.zeros_like(pair)
    w[live] = 2.0 * (lam[:, None] - lam[None, :])[live] ** 2 / pair[live]
    return w, vecs


def _qfi(rho: np.ndarray, h: np.ndarray) -> float:
    w, vecs = _qfi_weights(rho)
    h_eig = vecs.conj().T @ h @ vecs
    return float(np.sum(w * np.abs(h_eig) ** 2))


def _generators(d: int) -> list[np.ndarray]:
    """An orthonormal (tr[G_i G_j] = delta_ij) basis of traceless Hermitian matrices."""
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            for z in (1.0, 1j):
                g = np.zeros((d, d), dtype=complex)
                g[i, j], g[j, i] = z, np.conj(z)
                gens.append(g / np.sqrt(2.0))
    for k in range(1, d):
        diag = np.r_[np.ones(k), -k, np.zeros(d - k - 1)]
        gens.append(np.diag(diag / np.sqrt(k * (k + 1))).astype(complex))
    return gens


def _setting_matrices(outcomes, gens) -> tuple[np.ndarray, np.ndarray]:
    """Averaged QFI matrix Q_X and averaged covariance matrix V_X of one setting."""
    n = len(gens)
    q = np.zeros((n, n))
    v = np.zeros((n, n))
    for p, rho in outcomes:
        w, vecs = _qfi_weights(rho)
        g_eig = [vecs.conj().T @ g @ vecs for g in gens]
        means = np.array([np.trace(rho @ g).real for g in gens])
        for i in range(n):
            for j in range(i, n):
                q[i, j] += p * float(np.sum(w * (g_eig[i] * g_eig[j].T).real))
                sym = float(np.trace(rho @ (gens[i] @ gens[j] + gens[j] @ gens[i])).real) / 2.0
                v[i, j] += p * (sym - means[i] * means[j])
    return q + np.triu(q, 1).T, v + np.triu(v, 1).T


def mixed_witness_check(doc: dict, obs: dict) -> Callable[[str], list[str]]:
    """Check ``witness --quantify`` output on the given assemblage document."""
    settings = [
        [(float(o["p"]), _complex(o["rho"])) for o in s["outcomes"]] for s in doc["settings"]
    ]
    h = _complex(obs["matrix"])

    def witness(gen: np.ndarray) -> tuple[float, float]:
        cq = max(sum(p * _qfi(rho, gen) for p, rho in s) for s in settings)
        cv = min(sum(p * _variance(rho, gen) for p, rho in s) for s in settings)
        return cq, cv

    cq, cv = witness(h)
    d = doc["d_b"]
    traceless = h - np.trace(h) / d * np.eye(d)
    unit = traceless / np.linalg.norm(traceless)
    cq_unit, cv_unit = witness(unit)
    gens = _generators(d)
    mats = [_setting_matrices(s, gens) for s in settings]
    exact = float(max(np.linalg.eigvalsh(qx / 4.0 - vy)[-1] for qx, _ in mats for _, vy in mats))

    def check(text: str) -> list[str]:
        out = json.loads(text)
        problems = []
        for key, ref in (("cond_qfi", cq), ("cond_var", cv), ("delta", cq / 4.0 - cv)):
            if not _close(out[key], ref, WITNESS_TOL):
                problems.append(f"{key} {out[key]!r} != recomputed {ref!r}")
        s = out["s_lower_bound"]
        if s > max(exact, 0.0) + WITNESS_TOL:
            problems.append(f"s_lower_bound {s!r} exceeds the exact optimum {exact!r}")
        if s < cq_unit / 4.0 - cv_unit - WITNESS_TOL:
            problems.append(f"s_lower_bound {s!r} is below the normalised observable's delta")
        return problems

    return check


def pure_witness_check(doc: dict, obs: dict) -> Callable[[str], list[str]]:
    """Optimal settings of a pure state reach 4 Var[rho_B, H] and F_Q[rho_B, H] / 4."""
    psi = _complex(doc["amplitudes"]).reshape(doc["dims"])
    rho_b = psi.T @ psi.conj()
    h = _complex(obs["matrix"])
    cq_ref, cv_ref = 4.0 * _variance(rho_b, h), _qfi(rho_b, h) / 4.0

    def check(text: str) -> list[str]:
        out = json.loads(text)
        problems = []
        for key, ref in (("cond_qfi", cq_ref), ("cond_var", cv_ref)):
            if not _close(out[key], ref, WITNESS_TOL):
                problems.append(f"{key} {out[key]!r} != {ref!r}")
        return problems

    return check
