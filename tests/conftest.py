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


def tensor(*factors):
    """Kronecker product of one or more matrices (dimensions multiply)."""
    out = np.asarray(factors[0], dtype=complex)
    for factor in factors[1:]:
        out = np.kron(out, np.asarray(factor, dtype=complex))
    return out


def partial_trace(rho, dims, keep):
    """Trace out one subsystem of a bipartite operator.

    ``dims = (d_A, d_B)`` with the first factor as the slow index; ``keep``
    is ``"A"`` or ``"B"``.
    """
    from steerkit.linalg import ValidationError

    d_a, d_b = int(dims[0]), int(dims[1])
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (d_a * d_b, d_a * d_b):
        raise ValidationError(f"rho has shape {mat.shape}, expected ({d_a * d_b}, {d_a * d_b}) for dims {dims}")
    return np.einsum("ajbj->ab" if keep == "A" else "jajb->ab", mat.reshape(d_a, d_b, d_a, d_b))


def reduced_b(state):
    """Bob's reduced density matrix of a ``BipartitePureState``, as a dense matrix."""
    m = state.matrix
    return m.T @ m.conj()


def dense_mixture(first, second, weight):
    """Per setting, {label: (p, rho)} of weight * A1 + (1 - weight) * A2, summed as dense matrices."""
    out = []
    for rec1, rec2 in zip(first.settings, second.settings):
        blocks = {}
        for t, rec in ((weight, rec1), (1.0 - weight, rec2)):
            for lab, p, st in zip(rec.outcomes, rec.probabilities, rec.states):
                blocks[lab] = blocks.get(lab, 0.0) + t * p * st.reconstruct()
        out.append({lab: (np.trace(b).real, b / np.trace(b).real) for lab, b in blocks.items()})
    return out


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
