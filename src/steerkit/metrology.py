"""Core metrological functionals: variance, quantum/classical Fisher information.

States may be passed either as density matrices (2-D arrays) or as pure-state
amplitude vectors (1-D arrays); the pure-state paths use the exact identities
F_Q = 4 Var and <O> = <psi|O|psi> instead of an eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL,
    NumericError,
    ValidationError,
    as_complex_matrix,
    as_complex_vector,
    dagger,
    hermitian_eig,
    outer,
    require_hermitian,
)


@dataclass(frozen=True)
class POVM:
    """A generalized measurement: positive effects summing to the identity.

    ``vectors`` is set by ``povm_from_basis``, where ``effects[i] == |v_i><v_i|``
    by construction; pure-state code then conditions on amplitudes instead
    of matrices.
    """

    effects: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    vectors: tuple[np.ndarray, ...] | None = None

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def make_povm(effects, labels=None) -> POVM:
    """Validate effects (PSD, summing to identity) and build a POVM."""
    mats = tuple(as_complex_matrix(e, "POVM effect") for e in effects)
    if not mats:
        raise ValidationError("POVM needs at least one effect")
    dim = mats[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for i, eff in enumerate(mats):
        eff = require_hermitian(eff, name=f"POVM effect {i}")
        if eff.shape != (dim, dim):
            raise ValidationError(f"POVM effect {i} has shape {eff.shape}, expected ({dim}, {dim})")
        lo = float(np.linalg.eigvalsh(eff)[0])
        if lo < TOL.psd:
            raise ValidationError(f"POVM effect {i} has negative eigenvalue {lo:.3e}")
        total += eff
    return _complete_povm(total, mats, labels)


def povm_from_basis(basis, labels=None) -> POVM:
    """Projective POVM {|v_i><v_i|} from the columns v_i of a complete basis.

    Rank-1 projectors are Hermitian and positive by construction, so the one
    check is completeness, max |V V^dag - I| <= ``TOL.povm_identity``: the
    condition ``make_povm`` applies to the summed effects.
    """
    mat = as_complex_matrix(basis, "basis")
    vectors = tuple(mat[:, i] for i in range(mat.shape[1]))
    return _complete_povm(mat @ dagger(mat), [outer(v) for v in vectors], labels, vectors)


def _complete_povm(total: np.ndarray, effects, labels, vectors=None) -> POVM:
    """Check the summed effects ``total`` against the identity, then label and build the POVM."""
    dev = float(np.max(np.abs(total - np.eye(total.shape[0]))))
    if dev > TOL.povm_identity:
        raise ValidationError(f"POVM effects sum deviates from identity by {dev:.3e}")
    labels = tuple(str(i) for i in range(len(effects))) if labels is None else tuple(str(lab) for lab in labels)
    if len(labels) != len(effects):
        raise ValidationError("POVM labels and effects differ in length")
    return POVM(effects=tuple(effects), labels=labels, vectors=vectors)


def _check_dims(state: np.ndarray, op: np.ndarray, name: str) -> None:
    d = state.shape[0]
    if op.shape != (d, d):
        raise ValidationError(f"{name} has shape {op.shape}, state dimension is {d}")


def expectation(state, operator) -> float:
    """<O> for a density matrix or amplitude vector; real part returned."""
    op = as_complex_matrix(operator, "operator")
    st = np.asarray(state, dtype=complex)
    _check_dims(st, op, "operator")
    if st.ndim == 1:
        return float(np.vdot(st, op @ st).real)
    return float(np.trace(st @ op).real)


def variance(state, observable) -> float:
    """Var[rho, H] = <H^2> - <H>^2, clamped at zero against roundoff."""
    op = as_complex_matrix(observable, "observable")
    st = np.asarray(state, dtype=complex)
    _check_dims(st, op, "observable")
    if st.ndim == 1:
        hv = op @ st
        second = float(np.vdot(hv, hv).real)
        first = float(np.vdot(st, hv).real)
    else:
        hrho = op @ st
        second = float(np.trace(op @ hrho).real)
        first = float(np.trace(hrho).real)
    val = second - first * first
    if val < -1e-12:
        raise NumericError(f"variance came out {val:.3e}; inputs are inconsistent")
    return max(val, 0.0)


def qfi(state, generator, eps: float = TOL.qfi_eigen) -> float:
    """Quantum Fisher information for unitary encoding exp(-i theta H).

    Density matrices go through the spectral sum
    2 sum_{i,j: l_i+l_j > eps} (l_i-l_j)^2/(l_i+l_j) |<i|H|j>|^2;
    eigenvalue pairs with l_i + l_j <= eps are skipped, which removes the
    0/0 terms of rank-deficient states deterministically.  Pure-state
    vectors use the exact identity F_Q = 4 Var.
    """
    op = as_complex_matrix(generator, "generator")
    st = np.asarray(state, dtype=complex)
    _check_dims(st, op, "generator")
    if st.ndim == 1:
        return 4.0 * variance(st, op)
    spec = hermitian_eig(st, tol=1e-9)
    lam = spec.eigenvalues
    h_eig = dagger(spec.eigenvectors) @ op @ spec.eigenvectors
    pair_sum = lam[:, None] + lam[None, :]
    mask = pair_sum > eps
    diff = lam[:, None] - lam[None, :]
    weights = np.zeros_like(pair_sum)
    weights[mask] = diff[mask] ** 2 / pair_sum[mask]
    val = 2.0 * float(np.sum(weights * np.abs(h_eig) ** 2))
    return max(val, 0.0)


def qfi_white_noise(psi, generator, p: float) -> float:
    """Closed-form QFI of p|psi><psi| + (1-p) I/d under generator H."""
    vec = as_complex_vector(psi, "psi")
    op = as_complex_matrix(generator, "generator")
    _check_dims(vec, op, "generator")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be a probability, got {p}")
    d = vec.shape[0]
    if p == 0.0:
        return 0.0
    return 4.0 * p * p / (p + 2.0 * (1.0 - p) / d) * variance(vec, op)


def cfi(povm: POVM, state, generator) -> float:
    """Classical Fisher information at theta = 0 of p(x|theta) = tr[E_x rho_theta].

    The derivative is analytic: d_theta p(x|0) = -i tr(E_x [H, rho]).
    Outcomes with p < prob_floor and |dp| < prob_floor contribute 0; an
    outcome with p < prob_floor but |dp| >= prob_floor makes the Fisher
    information singular and raises.
    """
    op = as_complex_matrix(generator, "generator")
    st = np.asarray(state, dtype=complex)
    if st.ndim == 1:
        st = outer(st)
    _check_dims(st, op, "generator")
    if povm.dim != st.shape[0]:
        raise ValidationError(f"POVM dimension {povm.dim} does not match state dimension {st.shape[0]}")
    comm = op @ st - st @ op
    total = 0.0
    for eff, lab in zip(povm.effects, povm.labels):
        p = float(np.trace(eff @ st).real)
        dp = float((-1j * np.trace(eff @ comm)).real)
        if p < TOL.prob_floor:
            if abs(dp) < TOL.prob_floor:
                continue
            raise NumericError(
                f"outcome {lab!r} has vanishing probability but |dp/dtheta| = {abs(dp):.3e}: "
                "Fisher information is singular"
            )
        total += dp * dp / p
    return total


def qfi_commutator_bound(state, generator, observable) -> float:
    """Moment-based lower bound |<[H, M]>|^2 / Var[rho, M] on the QFI."""
    h = as_complex_matrix(generator, "generator")
    m = as_complex_matrix(observable, "observable")
    var_m = variance(state, m)
    if var_m <= 1e-14:
        raise NumericError("Var[rho, M] vanishes; the commutator bound is undefined")
    st = np.asarray(state, dtype=complex)
    comm = h @ m - m @ h
    mean_comm = complex(np.vdot(st, comm @ st)) if st.ndim == 1 else complex(np.trace(st @ comm))
    return abs(mean_comm) ** 2 / var_m


def var_qfi_gap(state, generator, eps: float = TOL.qfi_eigen):
    """Var - F_Q/4 via its explicit nonnegative decomposition.

    Returns ``(gap, saturated)``.  Using the double-sum decomposition
    2 sum_{i != j} l_i l_j/(l_i+l_j) |H_ij|^2 + Var_l(H_ii) avoids the
    cancellation of subtracting two large functionals; the gap vanishes
    exactly when Pi H Pi is proportional to Pi on the support of rho.
    """
    op = as_complex_matrix(generator, "generator")
    st = np.asarray(state, dtype=complex)
    _check_dims(st, op, "generator")
    if st.ndim == 1:
        st = outer(st)
    spec = hermitian_eig(st, tol=1e-9)
    lam = np.clip(spec.eigenvalues, 0.0, None)
    h_eig = dagger(spec.eigenvectors) @ op @ spec.eigenvectors
    pair_sum = lam[:, None] + lam[None, :]
    mask = pair_sum > eps
    np.fill_diagonal(mask, False)
    prod = lam[:, None] * lam[None, :]
    weights = np.zeros_like(pair_sum)
    weights[mask] = prod[mask] / pair_sum[mask]
    off_part = 2.0 * float(np.sum(weights * np.abs(h_eig) ** 2))
    diag = h_eig.diagonal().real
    mean_diag = float(np.dot(lam, diag))
    diag_part = float(np.dot(lam, (diag - mean_diag) ** 2))
    gap = off_part + diag_part

    support = lam > eps
    h_sub = h_eig[np.ix_(support, support)]
    r = int(np.sum(support))
    saturated = False
    if r:
        c = np.trace(h_sub) / r
        saturated = bool(np.max(np.abs(h_sub - c * np.eye(r))) < 1e-9)
    return gap, saturated
