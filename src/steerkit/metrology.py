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
formulas.  Each functional also takes a stack of A states (the outcomes of
one setting) and returns one value per state, in one array pass whose
arithmetic for each state is the same as on its own.  A POVM is
stored as one factor K_a per outcome, E_a = K_a K_a^dag, so conditioning on
an outcome (``assemblage``) reads it through K_a^dag and no effect is formed
as a d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    _ROW_BLOCK,
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


def as_state(state, name="state") -> Spectrum:
    """Spectral form of a state above its floor, or a checked stack of them.

    An amplitude vector becomes the rank-1 state, checked for unit norm.  A
    matrix gets one ``eigh``; its eigenvalues <= 0 are then dropped.  A
    ``Spectrum``, one state or a stack (with one name per state), is checked
    as given, in one pass: the floor must be >= 0, every eigenvalue at least
    the floor (to ``TOL.psd``), the trace sum(lam) + floor (d - r) equal to 1,
    and every column off the floor a finite unit vector (to ``TOL.norm``).
    The first check that fails names the first state that fails it.
    """
    if not isinstance(state, Spectrum):
        st = np.asarray(state, dtype=complex)
        if st.ndim == 1:
            return Spectrum(np.ones(1), require_state_vector(st, name)[:, None])
        return as_state(Spectrum(*np.linalg.eigh(require_hermitian(st, name=name))), name).support()
    one = np.ndim(state.floor) == 0
    lam, v, mu = np.asarray(state.eigenvalues), np.asarray(state.eigenvectors), np.asarray(state.floor, dtype=float)
    if one:
        lam, v, mu = lam[None], v[None], mu[None]
    if v.ndim != 3 or lam.shape != (v.shape[0], v.shape[2]) or mu.shape != lam.shape[:1]:
        shapes = f"eigenvalues {np.shape(state.eigenvalues)}, eigenvectors {np.shape(state.eigenvectors)}"
        who = name if isinstance(name, str) else f"{name[0]} to {name[-1]}"
        raise ValidationError(f"{who}: {shapes} and floors {np.shape(state.floor)} do not match")
    gap = lam - mu[:, None]
    low = np.fmin.reduce(gap, axis=1, initial=0.0)  # a NaN eigenvalue fails the trace
    trace = lam.sum(axis=1) + mu * (v.shape[1] - lam.shape[1])
    norm_dev = np.where(gap == 0.0, 0.0, np.abs(np.vecdot(v, v, axis=1).real - 1.0))  # a stack's padding is left out
    norm_ok = norm_dev <= TOL.norm
    ok = np.array([mu >= 0.0, low >= TOL.psd, np.abs(trace - 1.0) <= TOL.trace, norm_ok.all(axis=1)])  # NaN fails
    if not ok.all():
        check, a = np.argwhere(~ok)[0]  # the first check that fails, and the first state that fails it
        j = np.argmin(norm_ok[a]) if check == 3 else 0  # the first column that fails
        above = f" above its floor {mu[a]:.3e}" if mu[a] else ""
        message = (
            lambda: f"has negative floor {mu[a]:.3e}",
            lambda: f"has negative eigenvalue {low[a]:.3e}{above} below {TOL.psd:.1e}",
            lambda: f"eigenvalues sum to {trace[a]:.12f}, not 1",
            lambda: f"eigenvector {j} is not a finite unit vector: squared norm deviates from 1 by {norm_dev[a, j]:.3e}",
        )[check]()
        who = name if one else name[a] if not isinstance(name, str) else f"{name}[{a}]"
        raise ValidationError(f"{who} {message}")
    return state


def _one(operator, name: str) -> np.ndarray:
    """One operator, a diagonal (d,) or a d x d matrix, not a stack; ``_operator`` checks its dtype and length."""
    op = np.asarray(operator)
    return op if op.ndim == 1 else as_complex_matrix(op, name)


def _operator(operator, dim: int, name: str) -> np.ndarray:
    """H on dimension ``dim``: a real diagonal (d,), one d x d matrix or a stack (n, d, d), after checking its shape.

    Neither form is checked for Hermiticity or finiteness here: the entry
    points (``require_hermitian``) do that once.
    """
    op = np.asarray(operator)
    if op.ndim == 1:
        if np.iscomplexobj(op):
            raise ValidationError(f"{name} diagonal must be real, got dtype {op.dtype}")
        if op.shape != (dim,):
            raise ValidationError(f"{name} diagonal has shape {op.shape}, state dimension is {dim}")
        return op.astype(float, copy=False)
    if op.ndim not in (2, 3) or op.shape[-2:] != (dim, dim):
        raise ValidationError(f"{name} has shape {op.shape}, state dimension is {dim}")
    return np.ascontiguousarray(op, dtype=complex)  # ``_gram`` views a stack as floats


def _evaluate(kernel, state, operator, name: str):
    """``kernel(lam, v, mu, H)`` on one state, or on each state of a stack, for H checked by ``_operator``.

    The kernel takes a stack: eigenvalues (A, r), eigenvectors (A, d, r) and
    floors (A,).  States of one rank go to it together, each with only its
    columns off the floor, so a state's arithmetic is that of its own
    evaluation, and one state is a stack of one.  They go in blocks of about
    ``_ROW_BLOCK`` entries of H V, which bounds the temporaries.  A
    ``Spectrum`` is taken as built: ``as_state`` checks it once, where it
    enters an assemblage.
    """
    st = state if isinstance(state, Spectrum) else as_state(state)
    op = _operator(operator, st.dim, name)
    one = np.ndim(st.floor) == 0
    if one:
        st = Spectrum(st.eigenvalues[None], st.eigenvectors[None], np.array([st.floor], dtype=float))
    kept = st.eigenvalues != st.floor[:, None]
    groups = [(np.arange(len(st)), st)]  # every column kept: the stack as it is, not a copy
    if not kept.all():
        ranks = kept.sum(axis=1)
        groups = []
        for k in sorted(set(ranks.tolist())):
            pos = np.flatnonzero(ranks == k)
            part = Spectrum(st.eigenvalues[pos], st.eigenvectors[pos], st.floor[pos])
            groups.append((pos, part.leading(kept[pos], k)))
    per_state = st.dim * (len(op) if op.ndim == 3 else 1)
    pieces = []
    for pos, part in groups:
        step = max(1, _ROW_BLOCK // (per_state * max(part.eigenvalues.shape[1], 1)))
        for lo in range(0, len(pos), step):
            block = slice(lo, lo + step)
            val = kernel(part.eigenvalues[block], part.eigenvectors[block], part.floor[block], op)
            pieces.append((pos[block], val))
    out = pieces[0][1]  # one piece holds every state in order; more are gathered, at the cost of a copy
    if len(pieces) > 1:
        out = np.empty((len(st),) + out.shape[1:])
        for pos, val in pieces:
            out[pos] = val
    if not one:
        return out
    return float(out[0]) if out.ndim == 1 else out[0]


def _apply(op: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H V, V) for a stack V (A, d, r); a stack of operators takes V as (A, 1, d, r), one row per operator."""
    if op.ndim == 1:
        return op[:, None] * v, v
    if op.ndim == 3:
        v = v[:, None]
    return op @ v, v


def _trace(op: np.ndarray):
    """tr H of a diagonal, one matrix or each matrix of a stack."""
    return op.sum() if op.ndim == 1 else np.trace(op, axis1=-2, axis2=-1).real


def _gram(x: np.ndarray, w: np.ndarray):
    """sum_ki w_ki Re(x_a,ki conj(x_b,ki)) per state, with weights w per column (A, r) or per entry (A, k, r).

    x (A, k, r) gives a number per state, sum w |x|^2, from the column norms
    when w is per column; x (A, n, k, r) of n operators gives the n x n
    matrix per state, as the real product of the float views.  Neither forms
    a conjugate copy.
    """
    if x.ndim == 3:
        if w.ndim == 2:
            return np.vecdot(w, np.vecdot(x, x, axis=1).real)
        return np.vecdot(w.reshape(len(w), -1), (np.abs(x) ** 2).reshape(len(x), -1))
    a, n = x.shape[:2]
    weighted = x * (w[..., None, :] if w.ndim == 3 else w)
    return weighted.reshape(a, n, -1).view(float) @ x.reshape(a, n, -1).view(float).swapaxes(1, 2)


def _mean(hv: np.ndarray, v: np.ndarray, mu: np.ndarray, w: np.ndarray, op: np.ndarray):
    """<H> = sum_i w_i Re<v_i|H v_i> + floor tr H per state, or per operator of a stack."""
    x = np.vecdot(v, hv, axis=-2).real
    if x.ndim == 3:
        mean = (x @ w[:, :, None])[..., 0]
    else:
        mean = (x[:, None] @ w[:, :, None])[:, 0, 0]
    if not np.count_nonzero(mu):  # no floor, no floor term
        return mean
    mu = mu.reshape((-1,) + (1,) * (mean.ndim - 1))
    return np.where(mu != 0, mean + mu * _trace(op), mean)


def _expectation(lam, v, mu, op):
    hv, v = _apply(op, v)
    return _mean(hv, v, mu, lam - mu[:, None], op)


def expectation(state, operator):
    """<O> = sum_i (lam_i - floor) <v_i|O|v_i> + floor tr O, real part; per state of a stack of states."""
    return _evaluate(_expectation, state, _one(operator, "operator"), "operator")


def variance(state, observables):
    """Var = <H^2> - <H>^2 of one observable, or the covariance matrix of a stack (n, d, d).

    With w_i = lam_i - floor: <H_a H_b> = sum_i w_i Re<H_a v_i|H_b v_i>
    + floor Re tr(H_a H_b) and <H_a> = sum_i w_i (H_a)_ii + floor tr H_a.
    One observable gives a float clamped at zero against roundoff; a stack
    gives the n x n matrix Cov_ab = <H_a H_b> - <H_a><H_b>.  A variance
    (diagonal entry) below -1e-12 raises.  A stack of states gives one value
    per state.
    """
    return _evaluate(_variance, state, observables, "observable")


def _variance(lam, v, mu, op):
    hv, v = _apply(op, v)
    w = lam - mu[:, None]
    second = _gram(hv, w[:, None] if op.ndim == 3 else w)
    mean = _mean(hv, v, mu, w, op)
    if np.count_nonzero(mu):  # the floor's share, Re tr(H_a H_b); a state without a floor gains exact zeros
        floor_second = op @ op if op.ndim == 1 else _gram(op[None], np.ones((1,) * (op.ndim - 1) + (op.shape[-1],)))[0]
        second += mu.reshape((-1,) + (1,) * (second.ndim - 1)) * floor_second
    if op.ndim == 3:
        second -= mean[:, :, None] * mean[:, None, :]
        lows = np.diagonal(second, axis1=1, axis2=2).min(axis=1, initial=np.inf)
    else:
        second -= mean * mean
        lows = second
    if np.count_nonzero(lows < -1e-12):
        raise NumericError(f"variance came out {lows[lows < -1e-12][0]:.3e}; inputs are inconsistent")
    return second if op.ndim == 3 else np.where(0.0 > second, 0.0, second)


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
    one generator gives a float clamped at zero.  A stack of states gives one
    value per state, r each state's own rank (``_evaluate`` leaves a stack's
    padding out).
    """
    return _evaluate(_qfi, state, generators, "generator")


def _qfi(lam, v, mu, op):
    hv, v = _apply(op, v)
    lam, mu = (lam[:, None], mu[:, None, None]) if op.ndim == 3 else (lam, mu[:, None])
    rot = dagger(v) @ hv  # H_ij on the columns
    complement = lam.shape[-1] < v.shape[-2]
    val = None  # the terms are scaled and added in place: a fresh n x n array per state costs more than the sums
    if lam.shape[-1] > 1 or not complement:  # pairs of columns; one column has none
        pair_sum = lam[..., :, None] + lam[..., None, :]
        diff_sq = (lam[..., :, None] - lam[..., None, :]) ** 2
        val = _gram(rot, np.divide(diff_sq, pair_sum, out=np.zeros_like(pair_sum), where=pair_sum > TOL.qfi_eigen))
        val *= 2.0
    if complement:  # columns paired with the complement, through its part (1 - V V^dag) H v_i
        w = np.where(mu != 0, (lam - mu) ** 2 / (lam + mu), lam) if np.count_nonzero(mu) else lam
        term = _gram(hv - v @ rot, w)
        term *= 4.0
        val = term if val is None else np.add(val, term, out=val)
    return val if op.ndim == 3 else np.where(0.0 > val, 0.0, val)
