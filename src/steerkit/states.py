"""Constructors for the states and operators used throughout the worked examples.

Collective spin operators act on the (N+1)-dimensional symmetric sector with
basis index k counting excitations, so J_z |k> = (k - N/2) |k>.  Only the
GHZ-with-white-noise construction lives in the full 2^N qubit space (the
identity admixture is not symmetric-sector), capped at 12 qubits; it is kept
in spectral form, the GHZ vector over the floor (1-p)/2^N.

Quadrature convention: x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2),
fixed by the vacuum variance Var[x] = 1/2.  Conventions vary between texts;
everything downstream (cat-state variances, Reid bounds) assumes this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .linalg import TOL, Spectrum, ValidationError, as_complex_vector, require_state_vector, unitary_from_generator


@dataclass(frozen=True)
class SpinOperators:
    """Collective spin components on the symmetric sector of n qubits."""

    n_particles: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_particles + 1


def spin_ops(n_particles: int) -> SpinOperators:
    """Jx, Jy, Jz of dimension n+1 with Jz eigenvalue (k - n/2) at index k."""
    n = int(n_particles)
    if n < 0:
        raise ValidationError(f"n_particles must be >= 0, got {n_particles}")
    d = n + 1
    m = np.arange(d) - n / 2.0
    j = n / 2.0
    raising = np.zeros((d, d))
    for k in range(d - 1):
        raising[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jx = (raising + raising.T) / 2.0
    jy = (raising - raising.T) / 2j
    jz = np.diag(m).astype(complex)
    return SpinOperators(n_particles=n, jx=jx.astype(complex), jy=jy, jz=jz)


@dataclass(frozen=True)
class BipartitePureState:
    """A pure state on H_A (x) H_B stored as a flat amplitude vector.

    Index convention: amplitude of |a>|b> sits at a * d_B + b.  The optional
    label tuples carry physical basis annotations such as (N_A, k_A) sector
    labels for number-resolved splittings.
    """

    dims: tuple[int, int]
    amplitudes: np.ndarray
    basis_labels_a: tuple | None = None
    basis_labels_b: tuple | None = None

    def __post_init__(self):
        d_a, d_b = self.dims
        vec = as_complex_vector(self.amplitudes, "amplitudes")
        if vec.shape[0] != d_a * d_b:
            raise ValidationError(
                f"amplitude length {vec.shape[0]} does not match dims {self.dims}"
            )
        dev = abs(float(np.vdot(vec, vec).real) - 1.0)
        if dev > TOL.norm:
            raise ValidationError(f"state squared norm deviates from 1 by {dev:.3e}")

    @property
    def d_a(self) -> int:
        return self.dims[0]

    @property
    def d_b(self) -> int:
        return self.dims[1]

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes as a (d_A, d_B) matrix."""
        return np.asarray(self.amplitudes, dtype=complex).reshape(self.dims)

    def reduced_b(self) -> np.ndarray:
        m = self.matrix
        return m.T @ m.conj()


# ---------------------------------------------------------------------------
# Rotation overlaps <k| exp(-i phi Jy) |k'>
# ---------------------------------------------------------------------------

def wigner_overlap(n_particles: int, k: int, k_prime: int, phi: float) -> float:
    """Matrix element <k| exp(-i phi Jy) |k'> on the n-particle symmetric sector."""
    n = int(n_particles)
    k = int(k)
    kp = int(k_prime)
    if not (0 <= k <= n and 0 <= kp <= n):
        raise ValidationError(f"indices k={k}, k'={kp} out of range for n={n}")
    return float(wigner_rotation_matrix(n, phi)[k, kp])


@lru_cache(maxsize=256)
def wigner_rotation_matrix(n_particles: int, phi: float) -> np.ndarray:
    """Full real orthogonal matrix W[k, k'] = <k| exp(-i phi Jy) |k'>.

    Exact diagonalisation of the tridiagonal Jy (Feng et al., Phys. Rev. E 92,
    043307 (2015)): accurate to about 1e-14 for every n and angle.
    Cached and read-only: the split-Dicke experiments reuse the same
    quarter-turn rotation across many parameter values.
    """
    out = np.ascontiguousarray(unitary_from_generator(spin_ops(n_particles).jy, phi).real)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# GHZ states
# ---------------------------------------------------------------------------

_MAX_QUBITS = 12  # largest noisy GHZ state: its dense form is 2^12 x 2^12

def ghz_vector(n_qubits: int, phi: float) -> np.ndarray:
    """(|0...0> + e^{i phi} |1...1>)/sqrt(2) on the full 2^n space."""
    if n_qubits < 1:
        raise ValidationError(f"need at least one qubit, got {n_qubits}")
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[0] = 1.0 / math.sqrt(2.0)
    vec[-1] = np.exp(1j * phi) / math.sqrt(2.0)
    return vec


def ghz_state(n_total: int, phi: float = 0.0) -> BipartitePureState:
    """GHZ state of n_total qubits split as 1 (Alice) vs n_total - 1 (Bob)."""
    n = int(n_total)
    if n < 2:
        raise ValidationError(f"GHZ split needs n_total >= 2, got {n_total}")
    return BipartitePureState(dims=(2, 2 ** (n - 1)), amplitudes=ghz_vector(n, phi))


def collective_jz(n_qubits: int) -> np.ndarray:
    """J_z = (1/2) sum_i sigma_z^(i) on the full 2^n space, diagonal."""
    diag = [(n_qubits - 2 * bin(i).count("1")) / 2.0 for i in range(2**n_qubits)]
    return np.diag(np.asarray(diag, dtype=complex))


def white_noise_mixture(psi, p: float) -> Spectrum:
    """p |psi><psi| + (1-p) I/d in spectral form: p + (1-p)/d on psi over the floor (1-p)/d."""
    vec = require_state_vector(psi, "psi")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be a probability, got {p}")
    floor = (1.0 - p) / vec.shape[0]
    return Spectrum(np.array([p + floor]), vec[:, None], floor)


def ghz_white_noise_state(n_total: int, phi: float, p: float) -> Spectrum:
    """p |GHZ><GHZ| + (1-p) I/2^n in spectral form (``white_noise_mixture``), for at most ``_MAX_QUBITS`` qubits."""
    n = int(n_total)
    if n < 2:
        raise ValidationError(f"GHZ needs n_total >= 2, got {n_total}")
    if n > _MAX_QUBITS:
        raise ValidationError(f"dense GHZ mixture capped at {_MAX_QUBITS} qubits, got {n}")
    return white_noise_mixture(ghz_vector(n, phi), p)


def ghz_white_noise(n_total: int, phi: float, p: float) -> np.ndarray:
    """p |GHZ><GHZ| + (1-p) I/2^n as a dense density matrix."""
    return ghz_white_noise_state(n_total, phi, p).reconstruct()


# ---------------------------------------------------------------------------
# Split Dicke states
# ---------------------------------------------------------------------------

def dicke_bounds(k: int, n_a: int, n_b: int) -> tuple[int, int]:
    """Admissible range of Alice-side excitations for k total over (n_a, n_b)."""
    return max(0, k - n_b), min(k, n_a)


def split_dicke_fixed(k: int, n_a: int, n_b: int) -> BipartitePureState:
    """Dicke state of k excitations deterministically split over n_a : n_b atoms."""
    k, n_a, n_b = int(k), int(n_a), int(n_b)
    if n_a < 0 or n_b < 0 or n_a + n_b < 1:
        raise ValidationError(f"invalid particle numbers ({n_a}, {n_b})")
    if not 0 <= k <= n_a + n_b:
        raise ValidationError(f"k={k} out of range for {n_a + n_b} particles")
    lo, hi = dicke_bounds(k, n_a, n_b)
    amp = 1.0 / math.sqrt(hi - lo + 1)
    d_a, d_b = n_a + 1, n_b + 1
    vec = np.zeros(d_a * d_b, dtype=complex)
    for k_a in range(lo, hi + 1):
        vec[k_a * d_b + (k - k_a)] = amp
    return BipartitePureState(
        dims=(d_a, d_b),
        amplitudes=vec,
        basis_labels_a=tuple((n_a, j) for j in range(d_a)),
        basis_labels_b=tuple((n_b, j) for j in range(d_b)),
    )


def partition_labels(n: int) -> tuple[tuple, ...]:
    """All (particle number, excitation) sector labels for one side of a split.

    Enumerates every (N_X, k_X) with 0 <= k_X <= N_X <= n; measurement bases
    that rotate within a particle-number sector are complete on this space.
    """
    return tuple((n_x, k_x) for n_x in range(n + 1) for k_x in range(n_x + 1))


@lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """log(m!) = lgamma(m + 1) for m = 0..n, read-only."""
    table = np.array([lgamma(m + 1) for m in range(n + 1)])
    table.flags.writeable = False
    return table


def partition_sector_amplitudes(n: int, k, p: float, n_a: int) -> np.ndarray:
    """Beam-splitter amplitudes of k-excitation Dicke states in Alice's N_A = n_a sector.

    Entry [..., k_A] holds the real amplitude on |n_a, k_A> (x) |n - n_a, k - k_A>,
    sqrt(C(k, k_A) C(n-k, n_a-k_A)) p^{n_a/2} (1-p)^{(n-n_a)/2}, with the
    binomials through log-gamma so n = 200 stays finite.  ``k`` may be an
    integer array of excitation numbers in [0, n]; the result has shape
    k.shape + (n_a + 1,).  Entries outside the admissible k_A window are 0,
    as is every sector with n_a > 0 at p = 0 or n_a < n at p = 1.
    """
    k = np.asarray(k)[..., None]
    k_a = np.arange(n_a + 1)
    k_b = k - k_a
    inside = (k_b >= 0) & (k_b <= n - n_a)
    if (p == 0.0 and n_a > 0) or (p == 1.0 and n_a < n):
        return np.zeros(inside.shape)
    k_b = np.where(inside, k_b, 0)
    lf = _log_factorials(n)
    log_p = n_a * math.log(p) + (n - n_a) * math.log1p(-p) if 0.0 < p < 1.0 else 0.0
    log_w = (lf[k] - lf[k_a] - lf[k_b] + lf[n - k] - lf[n_a - k_a] - lf[n - n_a - k_b]) + log_p
    return np.where(inside, np.exp(0.5 * log_w), 0.0)


def split_dicke_beamsplitter(k: int, n: int, p: float) -> BipartitePureState:
    """Dicke state with k excitations sent through a p : 1-p beam splitter.

    Both sides carry the full (particle number, excitations) sector basis,
    with the amplitudes of ``partition_sector_amplitudes``.
    """
    k, n = int(k), int(n)
    if n < 1 or not 0 <= k <= n:
        raise ValidationError(f"invalid Dicke parameters k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"splitting ratio must be in [0, 1], got {p}")
    labels = partition_labels(n)
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)
    mat = np.zeros((d, d), dtype=complex)
    for n_a in range(n + 1):
        for k_a, amp in enumerate(partition_sector_amplitudes(n, k, p, n_a)):
            if amp:
                mat[index[(n_a, k_a)], index[(n - n_a, k - k_a)]] = amp
    vec = mat.reshape(-1)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"beam-splitter amplitudes normalize to {norm}, not 1")
    vec = vec / norm
    return BipartitePureState(
        dims=(d, d), amplitudes=vec, basis_labels_a=labels, basis_labels_b=labels
    )


# ---------------------------------------------------------------------------
# Truncated Fock space and hybrid cat states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockSpace:
    """Truncated bosonic mode: indices 0 .. cutoff-1."""

    cutoff: int
    a_dagger: np.ndarray
    x: np.ndarray
    p: np.ndarray


def fock_space(cutoff: int) -> FockSpace:
    n = int(cutoff)
    if n < 2:
        raise ValidationError(f"Fock cutoff must be >= 2, got {cutoff}")
    a_dag = np.diag(np.sqrt(np.arange(1, n)), -1).astype(complex)
    a = a_dag.conj().T
    x = (a + a_dag) / math.sqrt(2.0)
    p = 1j * (a_dag - a) / math.sqrt(2.0)
    return FockSpace(cutoff=n, a_dagger=a_dag, x=x, p=p)


def default_fock_cutoff(alpha: float, tail: float = 1e-12, floor: int = 20) -> int:
    """Smallest cutoff whose truncated coherent tail mass stays below ``tail``."""
    lam = float(alpha) ** 2
    if lam == 0.0:
        return floor
    log_pmf = -lam  # Poisson pmf at 0, in logs
    cdf = math.exp(log_pmf)
    n = 1
    while 1.0 - cdf > tail:
        log_pmf += math.log(lam) - math.log(n)
        cdf += math.exp(log_pmf)
        n += 1
        if n > 100000:  # pragma: no cover - tail always closes long before this
            raise ValidationError("coherent tail mass failed to drop below threshold")
    return max(n, floor)


def coherent_amplitudes(alpha: float, cutoff: int) -> np.ndarray:
    """Truncated, renormalized coherent-state amplitudes for real alpha."""
    n = np.arange(int(cutoff))
    if alpha == 0.0:
        vec = np.zeros(int(cutoff), dtype=complex)
        vec[0] = 1.0
        return vec
    signs = np.sign(alpha) ** n
    log_mag = n * math.log(abs(alpha)) - 0.5 * np.array([lgamma(j + 1) for j in n])
    vec = signs * np.exp(log_mag - abs(alpha) ** 2 / 2.0)
    return (vec / np.linalg.norm(vec)).astype(complex)


def hybrid_cat(alpha: float, cutoff: int | None = None) -> BipartitePureState:
    """(|0>|alpha> + |1>|-alpha>)/sqrt(2) on qubit (x) truncated Fock space."""
    a = float(alpha)
    if a < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if cutoff is None:
        cutoff = default_fock_cutoff(a)
    cutoff = int(cutoff)
    lam = a * a
    if lam > 0:
        # Poisson tail above the cutoff must be negligible or moments are off.
        log_tail_term = cutoff * math.log(lam) - lgamma(cutoff + 1) - lam
        if log_tail_term > math.log(1e-10):
            raise ValidationError(
                f"cutoff {cutoff} too small for alpha={a}: use default_fock_cutoff"
            )
    plus = coherent_amplitudes(a, cutoff)
    minus = coherent_amplitudes(-a, cutoff)
    joint = np.concatenate([plus, minus]) / math.sqrt(2.0)
    joint /= np.linalg.norm(joint)
    return BipartitePureState(dims=(2, cutoff), amplitudes=joint)
