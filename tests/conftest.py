import numpy as np
import pytest

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def outer(v):
    """Rank-1 projector |v><v| of a (not necessarily normalized) vector."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def random_density(rng, d, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_floored_state(rng, d, r, floor):
    """V diag(lam) V^dag + floor (I - V V^dag): r random orthonormal columns, every lam_i >= floor, trace 1.

    ``floor="min"`` makes the floor equal to the smallest lam_i.
    """
    from steerkit.linalg import Spectrum

    x = rng.dirichlet(np.ones(r))
    if floor == "min":
        floor = 1.0 / d if r == 1 else 0.5 / d
        x[0] = 0.0
        x /= x.sum() if x.sum() else 1.0
    lam = floor + (1.0 - floor * d) * x
    return Spectrum(lam, random_unitary(rng, d)[:, :r], floor)
