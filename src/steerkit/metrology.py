"""Core metrological functionals: expectation, variance and quantum Fisher information.

Every functional works on the spectral form
rho = V diag(lam) V^dag + mu (I - V V^dag) of a state (``linalg.Spectrum``):
r orthonormal columns and a floor mu, the eigenvalue of every other
direction, so white noise p |psi><psi| + (1-p) I/d is r = 1 with
mu = (1-p)/d.  ``as_state`` is the one coercion: an amplitude vector is the
r = 1 case, a density matrix gets one eigendecomposition, and a Spectrum is
checked.  With H V in hand, expectation values, variances and the QFI cost
O(d^2 r); the floor adds its share through tr H and ||H||_F^2.  A diagonal
operator may be passed as its real diagonal h, a 1-D float array: H V is then
the row scaling h[:, None] * V, the floor terms are sum h and sum h^2, and
the cost is O(d r).  ``variance`` and ``qfi`` also take a stack (n, d, d) of
operators and return the n x n covariance or QFI matrix, from the same
formulas.  A POVM is
stored as one factor K_a per outcome, E_a = K_a K_a^dag, so conditioning on
an outcome (``assemblage``) reads it through K_a^dag and no effect is formed
as a d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL,
    NumericError,
    Spectrum,
    ValidationError,
    as_complex_matrix,
    dagger,
    require_hermitian,
    require_state_vector,
)


@dataclass(frozen=True)
class POVM:
    """A generalized measurement: effects E_a = K_a K_a^dag summing to the identity.

    Each outcome is stored as its factor K_a alone, a d x k_a matrix with k_a
    the rank of E_a; a projective POVM's factors are its basis columns (k_a = 1).
    """

    factors: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.factors[0].shape[0]


def make_povm(effects, labels=None) -> POVM:
    """Validate effects (PSD, summing to identity) and build a POVM.

    Each effect is diagonalised once: its lowest eigenvalue w is the PSD check,
    and its eigenpairs (w, e) above ``matrix_rank``'s cutoff give K_a = e sqrt(w).
    """
    mats = tuple(as_complex_matrix(e, "POVM effect") for e in effects)
    if not mats:
        raise ValidationError("POVM needs at least one effect")
    dim = mats[0].shape[0]
    factors = []
    for i, eff in enumerate(mats):
        eff = require_hermitian(eff, name=f"POVM effect {i}")
        if eff.shape != (dim, dim):
            raise ValidationError(f"POVM effect {i} has shape {eff.shape}, expected ({dim}, {dim})")
        w, e = np.linalg.eigh(eff)
        if w[0] < TOL.psd:
            raise ValidationError(f"POVM effect {i} has negative eigenvalue {float(w[0]):.3e}")
        keep = w > max(w[-1], 0.0) * dim * np.finfo(float).eps
        factors.append(e[:, keep] * np.sqrt(w[keep]))
    return _complete_povm(factors, labels)


def povm_from_basis(basis, labels=None) -> POVM:
    """Projective POVM {|v_i><v_i|} from the columns v_i of a complete basis.

    Column i is outcome i's d x 1 factor, so the POVM holds the basis matrix
    and nothing else; rank-1 projectors are Hermitian and positive by
    construction, so completeness is the one check.
    """
    mat = as_complex_matrix(basis, "basis")
    return _complete_povm([mat[:, i : i + 1] for i in range(mat.shape[1])], labels)


def _complete_povm(factors, labels) -> POVM:
    """Check max |sum_a K_a K_a^dag - I| <= ``TOL.povm_identity`` with one matmul, then label and build the POVM."""
    stacked = np.concatenate(factors, axis=1)
    dev = float(np.max(np.abs(stacked @ dagger(stacked) - np.eye(stacked.shape[0]))))
    if not dev <= TOL.povm_identity:  # a NaN deviation fails too
        raise ValidationError(f"POVM effects sum deviates from identity by {dev:.3e}")
    labels = tuple(str(i) for i in range(len(factors))) if labels is None else tuple(str(lab) for lab in labels)
    if len(labels) != len(factors):
        raise ValidationError("POVM labels and effects differ in length")
    return POVM(factors=tuple(factors), labels=labels)


def as_state(state, name: str = "state") -> Spectrum:
    """Spectral form of a state above its floor.

    An amplitude vector becomes the rank-1 state, checked for unit norm.  A
    matrix gets one ``eigh``; its eigenvalues <= 0 are then dropped.  A
    ``Spectrum`` is checked as given.  For both, the floor must be >= 0,
    every eigenvalue at least the floor (to ``TOL.psd``) and the trace
    sum(lam) + floor (d - r) equal to 1.
    """
    if isinstance(state, Spectrum):
        return _checked(state, name)
    st = np.asarray(state, dtype=complex)
    if st.ndim == 1:
        return Spectrum(np.ones(1), require_state_vector(st, name)[:, None])
    return _checked(Spectrum(*np.linalg.eigh(require_hermitian(st, name=name))), name).support()


def _checked(st: Spectrum, name: str) -> Spectrum:
    """``st`` once its floor, its eigenvalues above the floor and its trace pass; a NaN fails one of them."""
    mu, lam = st.floor, st.eigenvalues.tolist()  # a list: r is mostly 1, where numpy reductions cost more than the check
    if not mu >= 0.0:
        raise ValidationError(f"{name} has negative floor {mu:.3e}")
    lo = min(lam, default=mu) - mu
    if not lo >= TOL.psd:
        above = f" above its floor {mu:.3e}" if mu else ""
        raise ValidationError(f"{name} has negative eigenvalue {lo:.3e}{above} below {TOL.psd:.1e}")
    trace = sum(lam) + mu * (st.dim - len(lam))
    if not abs(trace - 1.0) <= TOL.trace:
        raise ValidationError(f"{name} eigenvalues sum to {trace:.12f}, not 1")
    return st


def _one(operator, name: str) -> np.ndarray:
    """One operator, a diagonal (d,) or a d x d matrix, not a stack; ``_rotate`` checks a diagonal's dtype and length."""
    op = np.asarray(operator)
    return op if op.ndim == 1 else as_complex_matrix(op, name)


def _rotate(state, operator, name: str) -> tuple[Spectrum, np.ndarray, np.ndarray]:
    """The state's spectral form, H and H V, after checking dimensions.

    The operator may be a real diagonal (d,), whose H V is the row scaling
    h[:, None] * V, one d x d matrix or a stack (n, d, d), whose H V is
    (n, d, r); functionals of one operator coerce it with ``_one`` first.
    Neither form is checked for Hermiticity or finiteness here: the entry
    points (``require_hermitian``) do that once.  A ``Spectrum`` is taken as
    built: ``as_state`` checks it once, where it enters an assemblage.
    """
    st = state if isinstance(state, Spectrum) else as_state(state)
    if np.ndim(operator) == 1:
        op = np.asarray(operator)
        if np.iscomplexobj(op):
            raise ValidationError(f"{name} diagonal must be real, got dtype {op.dtype}")
        op = op.astype(float, copy=False)
        if op.shape != (st.dim,):
            raise ValidationError(f"{name} diagonal has shape {op.shape}, state dimension is {st.dim}")
        return st, op, op[:, None] * st.eigenvectors
    op = np.ascontiguousarray(operator, dtype=complex)  # ``_gram`` views a stack as floats
    if op.ndim not in (2, 3) or op.shape[-2:] != (st.dim, st.dim):
        raise ValidationError(f"{name} has shape {op.shape}, state dimension is {st.dim}")
    return st, op, op @ st.eigenvectors


def _trace(op: np.ndarray):
    """tr H of a diagonal, one matrix or each matrix of a stack."""
    return op.sum() if op.ndim == 1 else np.trace(op, axis1=-2, axis2=-1).real


def _gram(x: np.ndarray, w: np.ndarray):
    """sum_ki w_ki Re(x_a,ki conj(x_b,ki)) with weights w per column (r,) or per entry (k, r).

    One (k, r) array x gives a number, sum w |x|^2, from the column norms
    when w is per column; a stack (n, k, r) gives the n x n matrix, as the
    real product of the float views.  Neither forms a conjugate copy.
    """
    if x.ndim == 2:
        return np.vdot(w, np.vecdot(x, x, axis=0).real if w.ndim == 1 else np.abs(x) ** 2)
    return (x * w).reshape(len(x), -1).view(float) @ x.reshape(len(x), -1).view(float).T


def expectation(state, operator) -> float:
    """<O> = sum_i (lam_i - floor) <v_i|O|v_i> + floor tr O; real part returned."""
    st, op, ov = _rotate(state, _one(operator, "operator"), "operator")
    val = float((st.eigenvalues - st.floor) @ np.vecdot(st.eigenvectors, ov, axis=0).real)
    return val + st.floor * float(_trace(op)) if st.floor else val


def variance(state, observables):
    """Var = <H^2> - <H>^2 of one observable, or the covariance matrix of a stack (n, d, d).

    With w_i = lam_i - floor: <H_a H_b> = sum_i w_i Re<H_a v_i|H_b v_i>
    + floor Re tr(H_a H_b) and <H_a> = sum_i w_i (H_a)_ii + floor tr H_a.
    One observable gives a float clamped at zero against roundoff; a stack
    gives the n x n matrix Cov_ab = <H_a H_b> - <H_a><H_b>.  A variance
    (diagonal entry) below -1e-12 raises.
    """
    st, op, hv = _rotate(state, observables, "observable")
    w = st.eigenvalues - st.floor
    second = _gram(hv, w)
    mean = np.vecdot(st.eigenvectors, hv, axis=-2).real @ w
    if st.floor:
        second = second + st.floor * (op @ op if op.ndim == 1 else _gram(op, np.ones(st.dim)))
        mean = mean + st.floor * _trace(op)
    val = second - np.multiply.outer(mean, mean)
    low = float(np.min(np.diagonal(val))) if val.ndim else float(val)
    if low < -1e-12:
        raise NumericError(f"variance came out {low:.3e}; inputs are inconsistent")
    return val if val.ndim else max(low, 0.0)


def qfi(state, generators):
    """Quantum Fisher information for unitary encoding exp(-i theta H), or the QFI matrix of a stack (n, d, d).

    Rank-r spectral sum over the columns, with the complement of eigenvalue
    mu = floor (Liu, Jing, Zhong and Wang, Commun. Theor. Phys. 61, 45 (2014)):

        2 sum_{i,j <= r} (l_i-l_j)^2/(l_i+l_j) |H_ij|^2
        + 4 sum_i (l_i-mu)^2/(l_i+mu) ||(1 - V V^dag) H v_i||^2,

    where the second line adds the column-to-complement pairs exactly (it is
    ||H v_i||^2 - sum_{j <= r} |H_ij|^2, taken without that cancellation, and
    absent for a full-rank state); pairs inside the complement have equal
    eigenvalues and carry no weight.  Column
    pairs with l_i + l_j <= ``TOL.qfi_eigen`` are skipped, which removes the
    0/0 terms deterministically.  A pure state gives F_Q = 4 Var.  A stack
    gives the polarised form F_ab, with Re(H_a,ij conj(H_b,ij)) and
    Re<H_a v_i|H_b v_i> in place of the squares, so that
    F(sum_a c_a H_a) = c^T F c (Liu et al., J. Phys. A 53, 023001 (2020));
    one generator gives a float clamped at zero.
    """
    st, _, hv = _rotate(state, generators, "generator")
    lam, mu, v = st.eigenvalues, st.floor, st.eigenvectors
    rot = dagger(v) @ hv  # H_ij on the columns
    pair_sum = lam[:, None] + lam[None, :]
    weights = np.divide((lam[:, None] - lam[None, :]) ** 2, pair_sum, out=np.zeros_like(pair_sum), where=pair_sum > TOL.qfi_eigen)
    val = 2.0 * _gram(rot, weights)
    if lam.size < st.dim:  # columns paired with the complement, through its part (1 - V V^dag) H v_i
        val = val + 4.0 * _gram(hv - v @ rot, (lam - mu) ** 2 / (lam + mu) if mu else lam)
    return val if val.ndim else max(float(val), 0.0)

