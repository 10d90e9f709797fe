"""Dense complex linear algebra over finite-dimensional Hilbert spaces.

Validated operator/state helpers plus the eigendecomposition and
generator-exponential primitives everything else builds on.
A diagonal operator may be given as its real diagonal, a 1-D float array:
``require_hermitian`` checks that form, and the functionals act on it as a
row scaling, so it never becomes a d x d matrix.
A ``Spectrum`` is the package's one state representation: r orthonormal
columns with their eigenvalues, and a floor, the single eigenvalue of every
direction outside them (zero for a state on its support, (1-p)/d for white
noise of weight 1-p).  The states of one measurement setting are one stacked
``Spectrum`` with a leading outcome axis (``stack``), so that they are
conditioned, checked and evaluated in one array pass.
All tolerances live in one policy record (``TOL``) so numeric contracts stay
uniform and testable across the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """An input violates a structural invariant (dimension, Hermiticity, ...)."""


class SchemaError(ValueError):
    """A JSON document does not match the expected layout (see ``serialize``)."""


class NumericError(RuntimeError):
    """A numerical routine failed or the requested quantity is undefined."""


@dataclass(frozen=True)
class Tolerances:
    """Central numeric policy used by every structural check in the package."""

    herm: float = 1e-12           # max-abs deviation from the conjugate transpose
    psd: float = -1e-10           # smallest admissible eigenvalue of a PSD operator
    trace: float = 1e-12          # deviation of a density-matrix trace from 1
    norm: float = 1e-12           # deviation of a state vector's squared norm from 1
    prob_sum: float = 1e-10       # deviation of per-setting outcome probabilities from 1
    weight_sum: float = 1e-12     # deviation of hidden-variable weights from 1
    no_signal: float = 1e-9       # max-abs deviation between setting marginals
    povm_identity: float = 1e-10  # max-abs deviation of summed POVM effects from identity
    qfi_eigen: float = 1e-12      # eigenvalue-pair cutoff in the QFI spectral sum
    prob_floor: float = 1e-14     # outcomes below this probability are dropped
    witness: float = 1e-9         # steering-detection threshold on the witness gap
    sandwich: float = 1e-9        # relative slack, times max(1, |value|), of a witness report's sandwich bounds


TOL = Tolerances()


def as_complex_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting anything else."""
    out = np.asarray(matrix, dtype=complex)
    if out.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def as_complex_vector(vector, name: str = "vector") -> np.ndarray:
    out = np.asarray(vector, dtype=complex)
    if out.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def dagger(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return matrix.conj().swapaxes(-1, -2)


_ROW_BLOCK = 1 << 16  # entries per block of rows in ``max_abs_by_rows``


def max_abs_by_rows(rows_of, n_rows: int, n_cols: int) -> float:
    """max |M_ij| of an n_rows x n_cols matrix M that ``rows_of(lo, hi)`` builds
    one block of rows at a time, so no temporary holds more than about
    ``_ROW_BLOCK`` entries.  A NaN entry makes the result NaN."""
    step = max(1, _ROW_BLOCK // max(n_cols, 1))
    dev = 0.0
    for lo in range(0, n_rows, step):
        dev = float(np.maximum(dev, np.max(np.abs(rows_of(lo, min(lo + step, n_rows))))))
    return dev


def qr_r_by_rows(rows_of, n_rows: int, n_cols: int) -> np.ndarray:
    """R of a QR of the n_rows x n_cols matrix M (n_rows >= n_cols) that
    ``rows_of(lo, hi)`` builds one block of rows at a time (``max_abs_by_rows``
    blocks): the R of the stacked R factors of the blocks.  It is unique up
    to a unitary on the left, as R^dag R = M^dag M is.
    """
    step = max(1, _ROW_BLOCK // max(n_cols, 1))
    blocks = [np.linalg.qr(rows_of(lo, min(lo + step, n_rows)), mode="r") for lo in range(0, n_rows, step)]
    return np.linalg.qr(np.concatenate(blocks), mode="r")


def require_hermitian(matrix, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity within ``TOL.herm`` (max-abs) and return the operator.

    A 1-D array is a diagonal operator given by its diagonal: it must be
    finite, with imaginary parts within ``TOL.herm / 2`` (the dense check's
    |M_ii - conj(M_ii)|), and comes back as a float array.
    """
    if np.ndim(matrix) == 1:
        diag = np.asarray(matrix)
        if np.iscomplexobj(diag):
            dev = 2.0 * float(np.max(np.abs(diag.imag), initial=0.0))
            if dev > TOL.herm:
                raise ValidationError(f"{name} diagonal is not real: max |h - conj(h)| = {dev:.3e} > {TOL.herm:.1e}")
        diag = np.asarray(diag.real, dtype=float)
        if not np.all(np.isfinite(diag)):
            raise ValidationError(f"{name} diagonal has non-finite entries")
        return diag
    out = as_complex_matrix(matrix, name)
    if out.shape[0] != out.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {out.shape}")
    dev = max_abs_by_rows(lambda lo, hi: out[lo:hi] - dagger(out[:, lo:hi]), *out.shape)
    if not dev <= TOL.herm:  # a NaN deviation fails too
        raise ValidationError(f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} > {TOL.herm:.1e}")
    return out


def require_density_matrix(matrix, name: str = "density matrix") -> np.ndarray:
    """Validate a density matrix and return it symmetrized as (M + M^dag)/2.

    Rejects (rather than clips) negative eigenvalues below ``TOL.psd``;
    silent clipping would mask construction bugs upstream.
    """
    out = require_hermitian(as_complex_matrix(matrix, name), name=name)
    out = (out + dagger(out)) / 2.0
    tr = complex(np.trace(out))
    if abs(tr - 1.0) > TOL.trace:
        raise ValidationError(f"{name} trace deviates from 1 by {abs(tr - 1.0):.3e}")
    lo = float(np.linalg.eigvalsh(out)[0])
    if lo < TOL.psd:
        raise ValidationError(f"{name} has negative eigenvalue {lo:.3e} below {TOL.psd:.1e}")
    return out


def require_state_vector(vector, name: str = "state vector") -> np.ndarray:
    """Validate unit squared norm within ``TOL.norm`` and return the vector."""
    out = as_complex_vector(vector, name)
    dev = abs(float(np.vdot(out, out).real) - 1.0)
    if not dev <= TOL.norm:  # a NaN deviation fails too
        raise ValidationError(f"{name} squared norm deviates from 1 by {dev:.3e}")
    return out


@dataclass(frozen=True)
class Spectrum:
    """Spectral form V diag(lam) V^dag + floor (I - V V^dag) of a Hermitian operator, or a stack of them.

    ``eigenvectors`` holds r <= d orthonormal columns matching
    ``eigenvalues`` (ascending when they come from ``hermitian_eig``); the
    ``floor`` mu is the one eigenvalue shared by the whole complement of
    those columns.  A state is stored this way above its floor: r = 1 and
    mu = 0 for a pure state, r = 1 and mu = (1-p)/d for p |psi><psi| + (1-p) I/d.

    A stack of A states (``stack``) has eigenvalues (A, r), eigenvectors
    (A, d, r) and floors (A,); a state of lower rank is padded with zero
    columns at eigenvalue = floor, and indexing gives it back without them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    floor: float = 0.0

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[-2]

    def __len__(self) -> int:
        return len(self.floor)  # the states of a stack; one state's floor is a float

    def __getitem__(self, a: int) -> "Spectrum":
        """State a of a stack, without its padding."""
        keep = self.eigenvalues[a] != self.floor[a]
        return Spectrum(self.eigenvalues[a][keep], self.eigenvectors[a][:, keep], self.floor[a])

    def reconstruct(self) -> np.ndarray:
        """The d x d matrix of one state."""
        v = self.eigenvectors
        out = (v * (self.eigenvalues - self.floor)) @ dagger(v)
        return out + self.floor * np.eye(self.dim) if self.floor else out

    def support(self) -> "Spectrum":
        """The part with eigenvalues strictly above the floor; of a stack, each state's part (``leading``)."""
        keep = self.eigenvalues > np.asarray(self.floor)[..., None]
        if keep.ndim == 1:
            return Spectrum(self.eigenvalues[keep], self.eigenvectors[:, keep], self.floor)
        if keep.all():  # no copy of a large stack
            return self
        return self.leading(keep, int(keep.sum(axis=1).max()))

    def leading(self, keep: np.ndarray, k: int) -> "Spectrum":
        """The stack of each state's first k columns where ``keep`` (A, r), in order, padded to k."""
        order = np.argsort(~keep, axis=1, kind="stable")[:, :k]
        kept = np.take_along_axis(keep, order, axis=1)
        mu = self.floor
        lam = np.where(kept, np.take_along_axis(self.eigenvalues, order, axis=1), mu[:, None])
        v = np.where(kept[:, None], np.take_along_axis(self.eigenvectors, order[:, None], axis=2), 0.0)
        return Spectrum(lam, v, mu)


def stack(spectra) -> Spectrum:
    """The given spectra of one dimension, each one state or a stack, as one stack in order.

    A state of lower rank than the widest is padded (see ``Spectrum``).
    """
    spectra = list(spectra)
    floor = np.concatenate([np.reshape(s.floor, -1) for s in spectra]).astype(float)
    r = max(s.eigenvalues.shape[-1] for s in spectra)
    lam = np.repeat(floor[:, None], r, axis=1)
    dtype = np.result_type(*(s.eigenvectors for s in spectra))
    v = np.zeros((len(floor), spectra[0].dim, r), dtype=dtype)
    a = 0
    for s in spectra:
        n, k = np.size(s.floor), s.eigenvalues.shape[-1]
        lam[a : a + n, :k] = s.eigenvalues
        v[a : a + n, :, :k] = s.eigenvectors
        a += n
    return Spectrum(lam, v, floor)


def hermitian_eig(operator) -> Spectrum:
    """Eigendecompose a Hermitian operator (checked to ``TOL.herm``); eigenvalues come out ascending.

    A diagonal (d,) needs no solver: its sorted entries, with the standard
    basis vectors in the same order.
    """
    op = require_hermitian(operator)
    if op.ndim == 1:
        order = np.argsort(op)
        return Spectrum(eigenvalues=op[order], eigenvectors=np.eye(len(op))[:, order])
    try:
        vals, vecs = np.linalg.eigh(op)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def factor_spectrum(factor: np.ndarray, floor=0.0) -> Spectrum:
    """Spectrum of G G^dag + floor I above its floor, from the factor G, or of a stack (A, d, m) with floors (A,).

    A thin SVD of G when it has fewer columns than rows, else ``eigh`` of
    G G^dag: either way the work is set by the smaller side of G.
    """
    mu = np.asarray(floor)[..., None]
    if factor.shape[-1] < factor.shape[-2]:
        u, s, _ = np.linalg.svd(factor, full_matrices=False)
        return Spectrum(s**2 + mu, u, floor).support()
    vals, vecs = np.linalg.eigh(factor @ dagger(factor))
    return Spectrum(vals + mu, vecs, floor).support()


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-i[A, B] of two Hermitian operators, each a d x d matrix or its real diagonal.

    A diagonal acts as a row (diag(a) B) or column (B diag(a)) scaling; two
    diagonals commute, which gives the zero diagonal.
    """
    if a.ndim == b.ndim == 1:
        return np.zeros(a.shape)
    if a.ndim == 1:
        return -1j * (a[:, None] * b - b * a)
    if b.ndim == 1:
        return -1j * (a * b - b[:, None] * a)
    return -1j * (a @ b - b @ a)


def unitary_from_generator(generator, angle: float) -> np.ndarray:
    """exp(-i * angle * H) for Hermitian H, via its eigendecomposition or from its ``Spectrum``."""
    spec = generator if isinstance(generator, Spectrum) else hermitian_eig(generator)
    phases = np.exp(-1j * float(angle) * spec.eigenvalues)
    v = spec.eigenvectors
    return (v * phases) @ dagger(v)
