"""Constructors for the states and operators used throughout the worked examples.

Collective spin operators act on the (N+1)-dimensional symmetric sector with
basis index k counting excitations, so J_z |k> = (k - N/2) |k>.  The GHZ
states live in the full 2^N qubit space (the white-noise admixture is not
symmetric-sector): the noisy one is kept in spectral form, the GHZ vector
over the floor (1-p)/2^N, and J_z there is its real diagonal, so the largest
array of a GHZ run is the state vector itself.  Its size is capped at
``MAX_STATE_BYTES`` (``require_qubits``); the dense ``ghz_white_noise``
matrix, at ``MAX_DENSE_QUBITS``.

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

from .linalg import Spectrum, ValidationError, as_complex_vector, require_state_vector, unitary_from_generator


@dataclass(frozen=True)
class SpinOperators:
    """Collective spin components on the symmetric sector of n qubits."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


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
    return SpinOperators(jx=jx.astype(complex), jy=jy, jz=jz)


@dataclass(frozen=True)
class BipartitePureState:
    """A pure state on H_A (x) H_B stored as a flat amplitude vector.

    Index convention: amplitude of |a>|b> sits at a * d_B + b.
    """

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        d_a, d_b = self.dims
        if d_a < 1 or d_b < 1:
            raise ValidationError(f"dims must be positive, got {self.dims}")
        vec = as_complex_vector(self.amplitudes, "amplitudes")
        if vec.shape[0] != d_a * d_b:
            raise ValidationError(f"amplitude length {vec.shape[0]} does not match dims {self.dims}")
        require_state_vector(vec, "state")

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

MAX_STATE_BYTES = 1 << 27  # 128 MiB for one complex state vector of 2^n amplitudes (16 bytes each)
MAX_QUBITS = (MAX_STATE_BYTES // 16).bit_length() - 1  # 23, the most qubits whose state vector fits
MAX_DENSE_QUBITS = 12  # ``ghz_white_noise``'s dense 2^n x 2^n matrix: 256 MiB at 12 qubits


def require_qubits(n_qubits: int) -> int:
    """n_qubits, once its state vector (16 * 2^n bytes) fits in ``MAX_STATE_BYTES``."""
    n = int(n_qubits)
    if n > MAX_QUBITS:
        raise ValidationError(
            f"state vector capped at MAX_STATE_BYTES = {MAX_STATE_BYTES} bytes ({MAX_QUBITS} qubits); "
            f"{n} qubits need 16 * 2^{n} bytes"
        )
    return n


def ghz_vector(n_qubits: int, phi: float) -> np.ndarray:
    """(|0...0> + e^{i phi} |1...1>)/sqrt(2) on the full 2^n space."""
    if n_qubits < 1:
        raise ValidationError(f"need at least one qubit, got {n_qubits}")
    require_qubits(n_qubits)
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
    """J_z = (1/2) sum_i sigma_z^(i) on the full 2^n space, as its real diagonal n/2 - popcount(i)."""
    n = require_qubits(n_qubits)
    return n / 2.0 - np.bitwise_count(np.arange(2**n)).astype(float)


def white_noise_mixture(psi, p: float) -> Spectrum:
    """p |psi><psi| + (1-p) I/d in spectral form: p + (1-p)/d on psi over the floor (1-p)/d."""
    vec = require_state_vector(psi, "psi")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be a probability, got {p}")
    floor = (1.0 - p) / vec.shape[0]
    return Spectrum(np.array([p + floor]), vec[:, None], floor)


def ghz_white_noise_state(n_total: int, phi: float, p: float) -> Spectrum:
    """p |GHZ><GHZ| + (1-p) I/2^n in spectral form (``white_noise_mixture``), within ``MAX_STATE_BYTES``."""
    n = int(n_total)
    if n < 2:
        raise ValidationError(f"GHZ needs n_total >= 2, got {n_total}")
    return white_noise_mixture(ghz_vector(n, phi), p)


def ghz_white_noise(n_total: int, phi: float, p: float) -> np.ndarray:
    """p |GHZ><GHZ| + (1-p) I/2^n as a dense density matrix, for at most ``MAX_DENSE_QUBITS`` qubits."""
    n = int(n_total)
    if n > MAX_DENSE_QUBITS:
        raise ValidationError(f"dense GHZ mixture capped at MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS} qubits, got {n}")
    return ghz_white_noise_state(n, phi, p).reconstruct()


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
    return BipartitePureState(dims=(d_a, d_b), amplitudes=vec)


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


# ---------------------------------------------------------------------------
# Truncated Fock space and hybrid cat states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockSpace:
    """Quadratures x and p of a truncated bosonic mode: indices 0 .. cutoff-1."""

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
    return FockSpace(x=x, p=p)


FOCK_TAIL = 1e-12  # the most coherent tail mass P(N >= cutoff) a cutoff leaves out
FOCK_FLOOR = 20  # the smallest cutoff


def default_fock_cutoff(alpha: float) -> int:
    """Smallest cutoff n >= ``FOCK_FLOOR`` with P(N >= n) <= ``FOCK_TAIL``, N ~ Poisson(alpha^2).

    The tail is summed from K = lam + 12 sqrt(lam) + 30 down, smallest terms
    first, each one exp(k log lam - lam - log k!) on its own
    (``_log_factorials``), so no running sum's rounding enters.  The mass
    past K, at most pmf(K) (K + 1)/(K + 1 - lam), must be under 2^-52
    ``FOCK_TAIL``, or it raises.
    """
    lam = float(alpha) ** 2
    if lam == 0.0:
        return FOCK_FLOOR
    far = lam + 12.0 * math.sqrt(lam) + 30.0
    if not far <= 100_000:  # NaN too; keeps the log-factorial table small
        raise ValidationError(f"alpha = {alpha:g} needs over 100000 Poisson terms for its Fock cutoff")
    far = int(far)
    log_pmf = np.arange(far + 1) * math.log(lam) - lam - _log_factorials(1 << far.bit_length())[: far + 1]
    if math.exp(log_pmf[-1]) * (far + 1) / (far + 1 - lam) > FOCK_TAIL * 2.0**-52:
        raise ValidationError(f"coherent tail mass for alpha = {alpha:g} does not close by {far} photons")
    tail = np.cumsum(np.exp(log_pmf[::-1]))[::-1]  # tail[n] = P(n <= N <= K)
    return max(int(np.argmax(tail <= FOCK_TAIL)), FOCK_FLOOR)


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


def hybrid_cat(alpha: float) -> BipartitePureState:
    """(|0>|alpha> + |1>|-alpha>)/sqrt(2) on qubit (x) the Fock space truncated at ``default_fock_cutoff``."""
    a = float(alpha)
    if a < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    cutoff = default_fock_cutoff(a)
    plus = coherent_amplitudes(a, cutoff)
    minus = coherent_amplitudes(-a, cutoff)
    joint = np.concatenate([plus, minus]) / math.sqrt(2.0)
    joint /= np.linalg.norm(joint)
    return BipartitePureState(dims=(2, cutoff), amplitudes=joint)
