"""Pure-bipartite-state machinery: Schmidt decomposition, optimal steering
measurements, SU(d) generator bases, and the pure-state steering quantifiers.

The optimal-measurement constructions operate on the support of Bob's reduced
state; kernel directions of a rank-deficient reduced state are appended as
extra projective outcomes that occur with probability zero, keeping the POVM
complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assemblage import (
    Assemblage,
    assemblage_from_pure_state,
    conditional_qfi,
    conditional_variance,
    setting_average_qfi,
    setting_average_variance,
)
from .linalg import ValidationError, dagger, require_hermitian
from .metrology import POVM, povm_from_basis
from .states import BipartitePureState

_SUPPORT_CUT = 1e-12


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data: coefficients are the eigenvalues of Bob's reduced state.

    ``coefficients`` descending and summing to one; columns of ``basis_a`` /
    ``basis_b`` are the matched local Schmidt vectors.  Phases are absorbed
    into ``basis_a`` so that each Bob vector has its largest-magnitude entry
    real positive, making conjugation in the Schmidt basis well defined.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients > _SUPPORT_CUT))


def schmidt(state: BipartitePureState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the (d_A, d_B) amplitude matrix."""
    u, s, vh = np.linalg.svd(state.matrix, full_matrices=False)
    basis_b = vh.T.copy()  # column i holds amplitudes of Bob's i-th Schmidt ket
    basis_a = u.copy()
    for i in range(s.size):
        col = basis_b[:, i]
        pivot = int(np.argmax(np.abs(col)))
        mag = abs(col[pivot])
        if mag > 0:
            phase = col[pivot] / mag
            basis_b[:, i] = col / phase
            basis_a[:, i] = basis_a[:, i] * phase
    return SchmidtDecomposition(coefficients=s**2, basis_a=basis_a, basis_b=basis_b)


def _completion(columns: np.ndarray) -> np.ndarray:
    """Orthonormal completion of the given orthonormal columns to their whole space."""
    _, _, vh = np.linalg.svd(dagger(columns))
    return dagger(vh[columns.shape[1] :])


def _steering_basis(sd: SchmidtDecomposition, bob_vectors: np.ndarray) -> np.ndarray:
    """Alice basis steering into the given Bob-side support vectors.

    ``bob_vectors`` holds coordinates in the Schmidt basis (support only) as
    columns; Alice's vector is the Schmidt-basis complex conjugate.
    """
    r = bob_vectors.shape[1]
    a_support = sd.basis_a[:, :r]
    alice = a_support @ bob_vectors.conj()
    rest = _completion(alice)
    return np.concatenate([alice, rest], axis=1)


def _support_generator(state: BipartitePureState, h) -> tuple[SchmidtDecomposition, np.ndarray, np.ndarray]:
    """Schmidt data, the support spectrum p of rho_B, and H on that support (Schmidt basis).

    H is a d_B x d_B matrix or its real diagonal."""
    op = require_hermitian(h, name="H")
    if op.shape[0] != state.d_b:
        raise ValidationError(f"H acts on dimension {op.shape[0]}, Bob has {state.d_b}")
    sd = schmidt(state)
    b_support = sd.basis_b[:, : sd.rank]
    h_b = op[:, None] * b_support if op.ndim == 1 else op @ b_support
    return sd, sd.coefficients[: sd.rank], dagger(b_support) @ h_b


def optimal_povm_qfi(state: BipartitePureState, h) -> POVM:
    """Alice's projective measurement achieving the conditional QFI on a pure state.

    Eigenvectors of X = sqrt(rho_B) H sqrt(rho_B) - <H> rho_B on the support
    are Fourier-combined so every steered conditional state has <H> equal to
    the reduced-state mean; the steered ensemble then attains the average QFI
    4 Var[rho_B, H] (the concave roof of the variance).
    """
    sd, p, h_tilde = _support_generator(state, h)
    root = np.sqrt(p)
    x_op = (root[:, None] * h_tilde * root[None, :]) - float(np.dot(p, h_tilde.diagonal().real)) * np.diag(p)
    _, x_vecs = np.linalg.eigh((x_op + dagger(x_op)) / 2.0)
    r = p.size
    k = np.arange(r)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / r) / math.sqrt(r)
    return povm_from_basis(_steering_basis(sd, x_vecs @ fourier))


def optimal_povm_var(state: BipartitePureState, h) -> POVM:
    """Alice's projective measurement achieving the conditional variance.

    Eigenvectors of Y_ij = 2 sqrt(p_i p_j)/(p_i + p_j) H_ij in the reduced
    eigenbasis steer Bob into the convex-roof ensemble, whose average
    variance equals F_Q[rho_B, H] / 4.
    """
    sd, p, h_tilde = _support_generator(state, h)
    pair = p[:, None] + p[None, :]
    weights = 2.0 * np.sqrt(np.outer(p, p)) / pair
    y_op = weights * h_tilde
    _, y_vecs = np.linalg.eigh((y_op + dagger(y_op)) / 2.0)
    return povm_from_basis(_steering_basis(sd, y_vecs))


def optimal_assemblage(state: BipartitePureState, h) -> Assemblage:
    """Assemblage holding both optimal settings for the given generator."""
    return assemblage_from_pure_state(
        state,
        [("qfi-opt", optimal_povm_qfi(state, h)), ("var-opt", optimal_povm_var(state, h))],
    )


@dataclass(frozen=True)
class GeneratorBasis:
    """Hilbert-Schmidt orthonormal traceless Hermitian generators of SU(d)."""

    dim: int
    generators: tuple[np.ndarray, ...]


def gellmann_basis(d: int) -> GeneratorBasis:
    """Generalized Gell-Mann construction normalized to tr[H_i H_j] = delta_ij."""
    d = int(d)
    if d < 2:
        raise ValidationError(f"generator basis needs d >= 2, got {d}")
    gens: list[np.ndarray] = []
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / math.sqrt(2.0)
            gens.append(sym)
            antisym = np.zeros((d, d), dtype=complex)
            antisym[i, j] = -1j / math.sqrt(2.0)
            antisym[j, i] = 1j / math.sqrt(2.0)
            gens.append(antisym)
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -level
        gens.append(np.diag(diag / math.sqrt(level * (level + 1))).astype(complex))
    return GeneratorBasis(dim=d, generators=tuple(gens))


def _check_distribution(p) -> np.ndarray:
    """A probability vector, or a stack (..., d) of them, clipped at 0."""
    vec = np.asarray(p, dtype=float)
    if vec.ndim == 0 or vec.shape[-1] == 0:
        raise ValidationError("need a nonempty probability vector")
    low, total = vec.min(axis=-1), vec.sum(axis=-1)
    bad = (low < -1e-12) | (np.abs(total - 1.0) > 1e-9)
    if bad.any():
        i = np.argwhere(bad)[0]
        where = f" at stack index {tuple(i.tolist())}" if i.size else ""
        raise ValidationError(f"not a probability vector{where}: min {low[tuple(i)]}, sum {total[tuple(i)]}")
    return np.clip(vec, 0.0, None)


def s_max_pure(p):
    """Maximal witness violation of a pure state with Schmidt spectrum p.

    Equals the largest eigenvalue of diag(p) - p p^T.  ``p`` may be a stack
    (..., d) of spectra, which gives an array of shape (...); one spectrum
    gives a float.
    """
    vec = _check_distribution(p)
    m = vec[..., :, None] * np.eye(vec.shape[-1]) - vec[..., :, None] * vec[..., None, :]
    top = np.linalg.eigvalsh(m)[..., -1]
    top = np.where(0.0 > top, 0.0, top)
    return float(top) if vec.ndim == 1 else top


def s_avg_pure(p):
    """Sphere-averaged witness violation of a pure state with Schmidt spectrum p.

    sum_{i != j} p_i p_j (1 + 2/(p_i + p_j)), with 0/0 read as 0, summed in
    (i, j) order.  ``p`` may be a stack (..., d) of spectra, which gives an
    array of shape (...); one spectrum gives a float.
    """
    vec = _check_distribution(p)
    i, j = np.nonzero(~np.eye(vec.shape[-1], dtype=bool))
    p_i, p_j = vec[..., i], vec[..., j]
    pair = p_i + p_j
    terms = np.where(pair > 0.0, p_i * p_j * (1.0 + 2.0 / np.where(pair > 0.0, pair, 1.0)), 0.0)
    # a leading 0 and a running sum add the terms one at a time, in order
    total = np.cumsum(np.concatenate([np.zeros(vec.shape[:-1] + (1,)), terms], axis=-1), axis=-1)[..., -1]
    return float(total) if vec.ndim == 1 else total


def assemblage_delta(assemblage: Assemblage, h) -> float:
    """Witness gap Delta = cond_qfi/4 - cond_var for one generator."""
    cq, _ = conditional_qfi(assemblage, h)
    cv, _ = conditional_variance(assemblage, h)
    return cq / 4.0 - cv


def s_max_lower_bound(assemblage: Assemblage) -> float:
    """Maximal witness violation over unit traceless generators, exact for the supplied settings.

    With Q_X the averaged QFI matrix and V_X the averaged covariance matrix of
    setting X on the Hilbert-Schmidt orthonormal Gell-Mann basis,

        max_{|c| = 1} Delta(sum_a c_a G_a) = max_{X,Y} lambda_max(Q_X/4 - V_Y),

    returned clamped at zero.  Q_X and V_X are ``setting_average_qfi`` and
    ``setting_average_variance`` of the Gell-Mann stack.  It is a lower bound
    on the violation maximised over all of Alice's measurements; on a pure
    state whose settings include the optimal ones it reaches
    s_max = lambda_max[diag(p) - p p^T].
    """
    gens = np.stack(gellmann_basis(assemblage.d_b).generators)
    qs = [setting_average_qfi(rec, gens) for rec in assemblage.settings]
    covs = [setting_average_variance(rec, gens) for rec in assemblage.settings]
    best = max(float(np.linalg.eigvalsh(q / 4.0 - v)[-1]) for q in qs for v in covs)
    return max(best, 0.0)


def multi_generator_sum(assemblage: Assemblage, basis: GeneratorBasis) -> tuple[float, float]:
    """Summed conditional QFI sum_i max_X (Q_X)_ii over a generator basis, and its LHS bound 4(d-1).

    (Q_X)_ii is the diagonal of ``setting_average_qfi`` on the basis stack.
    """
    if basis.dim != assemblage.d_b:
        raise ValidationError(f"basis dimension {basis.dim} != Bob dimension {assemblage.d_b}")
    gens = np.stack(basis.generators)
    best = np.max([np.diagonal(setting_average_qfi(rec, gens)) for rec in assemblage.settings], axis=0)
    return float(sum(best)), 4.0 * (basis.dim - 1)


def pure_multi_generator_value(p) -> float:
    """Closed-form basis-summed conditional QFI of a pure state: 4(d-1) + 4 sum_{i!=j} p_i p_j."""
    vec = _check_distribution(p)
    cross = float(np.sum(np.outer(vec, vec)) - np.sum(vec**2))
    return 4.0 * (vec.size - 1) + 4.0 * cross


def qubit_direction_gap(state: BipartitePureState, direction) -> float:
    """cond_qfi - 4 cond_var for H = n . sigma with both optimal settings.

    For every direction n this is 8 (1 - tr[rho_B^2]), the qubit gap identity.
    """
    if state.d_b != 2:
        raise ValidationError("the qubit gap identity needs d_B = 2")
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise ValidationError("direction must be a 3-vector")
    n = n / np.linalg.norm(n)
    paulis = [g * math.sqrt(2.0) for g in gellmann_basis(2).generators]
    h = sum(ni * gi for ni, gi in zip(n, paulis))
    asm = optimal_assemblage(state, h)
    cq, _ = conditional_qfi(asm, h)
    cv, _ = conditional_variance(asm, h)
    return cq - 4.0 * cv


def ancilla_invariance_check(state: BipartitePureState, ancilla_dim: int) -> bool:
    """True iff s_max/s_avg are unchanged, to 1e-10, by appending a pure ancilla to Bob."""
    anc = int(ancilla_dim)
    if anc < 1:
        raise ValidationError(f"ancilla dimension must be >= 1, got {ancilla_dim}")
    base = schmidt(state).coefficients
    mat = state.matrix
    padded_mat = np.zeros((state.d_a, state.d_b * anc), dtype=complex)
    padded_mat[:, : state.d_b * anc : anc] = mat  # |b>|0>_anc occupies every anc-th column
    padded = BipartitePureState(dims=(state.d_a, state.d_b * anc), amplitudes=padded_mat.reshape(-1))
    grown = schmidt(padded).coefficients
    ok = abs(s_max_pure(base) - s_max_pure(grown)) <= 1e-10
    ok &= abs(s_avg_pure(base) - s_avg_pure(grown)) <= 1e-10
    return bool(ok)
