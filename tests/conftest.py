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
    """weight * A1 + (1 - weight) * A2, outcome label by outcome label, summed as dense matrices.

    Outcomes are taken in order of first appearance; one present in only one
    assemblage enters with probability 0 from the other, and an outcome of
    total probability 0 is left out.  ``make_assemblage`` validates the result.
    """
    from steerkit.assemblage import SettingRecord, make_assemblage

    recs = []
    for rec1, rec2 in zip(first.settings, second.settings):
        blocks = {}
        for t, rec in ((weight, rec1), (1.0 - weight, rec2)):
            for lab, p, st in zip(rec.outcomes, rec.probabilities, rec.states):
                blocks[lab] = blocks.get(lab, 0.0) + t * p * st.reconstruct()
        probs = {lab: np.trace(b).real for lab, b in blocks.items() if np.trace(b).real > 0.0}
        states = tuple(blocks[lab] / p for lab, p in probs.items())
        recs.append(SettingRecord(rec1.label, np.array(list(probs.values())), states, tuple(probs)))
    return make_assemblage(recs, first.d_b)


def cfi(povm, rho, h):
    """Classical Fisher information at theta = 0 of p_a(theta) = tr(E_a e^{-i theta H} rho e^{i theta H}).

    Dense: p_a = tr(E_a rho) and dp_a = -i tr(E_a [H, rho]) with E_a = K_a K_a^dag;
    outcomes with p_a <= 1e-14 are left out.  ``h`` may be a real diagonal.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.diag(h) if np.ndim(h) == 1 else np.asarray(h, dtype=complex)
    total = 0.0
    for k in povm.factors:
        e = k @ k.conj().T
        p = np.trace(e @ rho).real
        dp = (-1j * np.trace(e @ (h @ rho - rho @ h))).real
        if p > 1e-14:
            total += dp * dp / p
    return total


def partition_labels(n):
    """All (particle number, excitation) sector labels (N_X, k_X), 0 <= k_X <= N_X <= n, for one side of a split."""
    return tuple((n_x, k_x) for n_x in range(n + 1) for k_x in range(n_x + 1))


def split_dicke_beamsplitter(k, n, p):
    """Dense Dicke state with k excitations sent through a p : 1-p beam splitter.

    Both sides carry the full (particle number, excitations) sector basis of
    ``partition_labels``, with the amplitudes of ``states.partition_sector_amplitudes``:
    the oracle the block evaluation of the partition table is checked against.
    """
    from steerkit.linalg import ValidationError
    from steerkit.states import BipartitePureState, partition_sector_amplitudes

    k, n = int(k), int(n)
    if n < 1 or not 0 <= k <= n:
        raise ValidationError(f"invalid Dicke parameters k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"splitting ratio must be in [0, 1], got {p}")
    labels = partition_labels(n)
    index = {lab: i for i, lab in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for n_a in range(n + 1):
        for k_a, amp in enumerate(partition_sector_amplitudes(n, k, p, n_a)):
            if amp:
                mat[index[(n_a, k_a)], index[(n - n_a, k - k_a)]] = amp
    vec = mat.reshape(-1)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"beam-splitter amplitudes normalize to {norm}, not 1")
    return BipartitePureState(dims=mat.shape, amplitudes=vec / norm, basis_labels_a=labels, basis_labels_b=labels)


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
