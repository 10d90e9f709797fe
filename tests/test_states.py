import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from steerkit.linalg import ValidationError
from steerkit.metrology import qfi, variance
from steerkit.states import (
    BipartitePureState,
    coherent_amplitudes,
    collective_jz,
    default_fock_cutoff,
    dicke_bounds,
    fock_space,
    ghz_state,
    ghz_vector,
    ghz_white_noise,
    ghz_white_noise_state,
    hybrid_cat,
    spin_ops,
    split_dicke_fixed,
    wigner_overlap,
    wigner_rotation_matrix,
)

from conftest import partial_trace, random_density, reduced_b, split_dicke_beamsplitter


class TestSpinOps:
    def test_single_particle(self):
        ops = spin_ops(1)
        assert np.allclose(ops.jz, np.diag([-0.5, 0.5]))
        assert np.allclose(ops.jx, np.array([[0, 0.5], [0.5, 0]]))
        assert np.allclose(ops.jx @ ops.jy - ops.jy @ ops.jx, 1j * ops.jz)

    def test_two_particles_jz(self):
        assert np.allclose(spin_ops(2).jz, np.diag([-1.0, 0.0, 1.0]))

    def test_commutators_cyclic(self):
        for n in (0, 3, 7, 20):
            ops = spin_ops(n)
            trips = [(ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx), (ops.jz, ops.jx, ops.jy)]
            for a, b, c in trips:
                assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-10

    def test_qfi_shot_noise_cap(self, rng):
        # F_Q[rho, Jz] <= n^2 for arbitrary states
        for n in (2, 4, 6):
            ops = spin_ops(n)
            for _ in range(10):
                rho = random_density(rng, n + 1)
                assert qfi(rho, ops.jz) <= n * n + 1e-9


def dense_rotation(n, phi):
    """exp(-i phi Jy) by scipy's dense matrix exponential."""
    return expm(-1j * phi * spin_ops(n).jy)


def quarter_turn_matrix(n):
    """<k| exp(-i pi/2 Jy) |k'> from the finite factorial sum, in exact integers.

    At the quarter turn every term carries the same trig factor 2^(-n/2), so
    the alternating sum is an integer; only the final square root rounds.
    """
    binom = [[math.comb(m, j) for j in range(m + 1)] for m in range(n + 1)]
    fact = [math.factorial(j) for j in range(n + 1)]
    out = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for kp in range(n + 1):
            acc = sum(
                (-1) ** t * binom[kp][t] * binom[n - kp][k - kp + t]
                for t in range(max(0, kp - k), min(kp, n - k) + 1)
            )
            square = Fraction(acc * acc * fact[k] * fact[n - k], fact[kp] * fact[n - kp] * 2**n)
            out[k, kp] = (-1) ** (k - kp) * math.copysign(math.sqrt(square), acc)
    return out


class TestWignerOverlap:
    def test_zero_angle_identity(self):
        for n in (1, 5, 40):
            assert np.allclose(wigner_rotation_matrix(n, 0.0), np.eye(n + 1))

    def test_single_particle_quarter_turn(self):
        w = np.asarray(wigner_rotation_matrix(1, math.pi / 2))
        c = math.cos(math.pi / 4)
        assert np.allclose(np.abs(w), [[c, c], [c, c]], atol=1e-12)
        assert np.allclose(w, w.T * np.array([[1, -1], [-1, 1]]))

    @pytest.mark.parametrize("n", [6, 120, 200])
    def test_quarter_turn_matches_exact_integer_sum(self, n):
        w = wigner_rotation_matrix(n, math.pi / 2)
        assert np.max(np.abs(w - quarter_turn_matrix(n))) < 1e-12
        assert np.max(np.abs(w @ w.T - np.eye(n + 1))) < 1e-12

    def test_against_dense_exponential(self):
        for n, phi in [(1, math.pi / 2), (6, math.pi / 2), (25, 1.3), (40, math.pi / 2), (40, 2.1), (64, 0.7)]:
            u = dense_rotation(n, phi)
            w = np.asarray(wigner_rotation_matrix(n, phi))
            assert np.max(np.abs(u.imag)) < 1e-10
            assert np.max(np.abs(w - u.real)) < 1e-9

    @pytest.mark.parametrize("n,phi", [(80, 0.9), (120, math.pi / 2), (200, math.pi / 2)])
    def test_orthonormal_rows_large_n(self, n, phi):
        w = np.asarray(wigner_rotation_matrix(n, phi))
        gram = w @ w.T
        assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-9

    def test_near_quarter_turn_outside_snap_window(self):
        # a hair off the quarter turn, where the factorial sum cancels worst
        n, phi = 60, math.pi / 2 + 1e-6
        u = dense_rotation(n, phi)
        w = np.asarray(wigner_rotation_matrix(n, phi))
        assert np.max(np.abs(w - u.real)) < 1e-9
        assert np.max(np.abs(w @ w.T - np.eye(n + 1))) < 1e-9

    @pytest.mark.parametrize(
        "phi", [math.pi, 2 * math.pi, 3 * math.pi / 2, -math.pi / 2, 5 * math.pi / 2]
    )
    def test_axis_and_negative_trig_angles(self, phi):
        # signs stay right in every quarter-turn quadrant, including the axes
        n = 41
        u = dense_rotation(n, phi)
        w = np.asarray(wigner_rotation_matrix(n, phi))
        assert np.max(np.abs(u.imag)) < 1e-10
        assert np.max(np.abs(w - u.real)) < 1e-9

    def test_out_of_range_indices(self):
        with pytest.raises(ValidationError):
            wigner_overlap(4, 5, 0, 0.3)
        with pytest.raises(ValidationError):
            wigner_overlap(4, 0, -1, 0.3)

    def test_cached_matrix_is_read_only_and_contiguous(self):
        w = wigner_rotation_matrix(7, 0.4)
        assert w.flags.c_contiguous and not w.flags.writeable
        assert w is wigner_rotation_matrix(7, 0.4)

    def test_scalar_matches_matrix(self):
        w = np.asarray(wigner_rotation_matrix(12, 0.85))
        for k, kp in [(0, 0), (3, 7), (12, 4)]:
            assert abs(wigner_overlap(12, k, kp, 0.85) - w[k, kp]) < 1e-12


class TestGHZ:
    def test_two_qubits_is_bell(self):
        state = ghz_state(2, 0.0)
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(state.amplitudes, expected)

    def test_reduced_state_rank_two(self):
        for n_total in (3, 5):
            state = ghz_state(n_total, 0.7)
            vals = np.linalg.eigvalsh(reduced_b(state))
            assert np.allclose(sorted(vals)[-2:], [0.5, 0.5], atol=1e-12)
            assert np.allclose(vals[:-2], 0.0, atol=1e-12)

    def test_recursion_identity(self):
        # GHZ_phi^{N+1} = (|+> GHZ_phi^N + |-> GHZ_{phi+pi}^N)/sqrt(2)
        for n_total in range(2, 9):
            for phi in (0.0, 0.9, 2.4):
                whole = ghz_state(n_total, phi).amplitudes
                plus = np.array([1, 1]) / np.sqrt(2)
                minus = np.array([1, -1]) / np.sqrt(2)
                lower = ghz_vector(n_total - 1, phi)
                upper = ghz_vector(n_total - 1, phi + np.pi)
                built = (np.kron(plus, lower) + np.kron(minus, upper)) / np.sqrt(2)
                assert np.max(np.abs(whole - built)) < 1e-12

    def test_requires_two_qubits(self):
        with pytest.raises(ValidationError):
            ghz_state(1)


class TestGHZWhiteNoise:
    def test_pure_limit(self):
        rho = ghz_white_noise(3, 0.0, 1.0)
        vec = ghz_vector(3, 0.0)
        assert np.allclose(rho, np.outer(vec, vec.conj()))

    def test_maximally_mixed_limit(self):
        assert np.allclose(ghz_white_noise(3, 0.4, 0.0), np.eye(8) / 8)

    def test_half_mixture_spectrum(self):
        vals = np.linalg.eigvalsh(ghz_white_noise(3, 0.0, 0.5))
        assert abs(max(vals) - (0.5 + 0.0625)) < 1e-12
        assert np.allclose(sorted(vals)[:-1], [0.0625] * 7, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValidationError, match="capped at MAX_DENSE_QUBITS"):
            ghz_white_noise(13, 0.0, 0.5)
        assert ghz_white_noise_state(13, 0.0, 0.5).dim == 2**13  # the spectral form is not capped there

    def test_spectral_form_is_rank_one_over_the_floor(self):
        st = ghz_white_noise_state(3, 0.4, 0.3)
        vec = ghz_vector(3, 0.4)
        assert st.eigenvalues.shape == (1,) and st.floor == 0.7 / 8
        assert np.allclose(st.eigenvectors[:, 0], vec, atol=0)
        dense = 0.3 * np.outer(vec, vec.conj()) + 0.7 * np.eye(8) / 8
        assert np.max(np.abs(ghz_white_noise(3, 0.4, 0.3) - dense)) < 1e-15
        with pytest.raises(ValidationError, match="capped"):
            ghz_white_noise_state(24, 0.0, 0.5)
        with pytest.raises(ValidationError, match="probability"):
            ghz_white_noise_state(3, 0.0, 1.5)


class TestSplitDickeFixed:
    def test_no_excitations(self):
        state = split_dicke_fixed(0, 2, 2)
        expected = np.zeros(9)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected)

    def test_single_excitation_pair(self):
        state = split_dicke_fixed(1, 1, 1)
        expected = np.zeros(4)
        expected[1] = expected[2] = 1 / np.sqrt(2)  # |01> and |10>
        assert np.allclose(state.amplitudes, expected)

    def test_twin_fock_uniform_amplitudes(self):
        n = 10
        state = split_dicke_fixed(n // 2, n // 2, n // 2)
        nonzero = np.abs(state.amplitudes[np.abs(state.amplitudes) > 0])
        assert len(nonzero) == n // 2 + 1
        assert np.allclose(nonzero, math.sqrt(2.0 / (n + 2)))

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            split_dicke_fixed(5, 2, 2)


def partition_amplitude(state, n, k, n_a, k_a):
    ia = state.basis_labels_a.index((n_a, k_a))
    ib = state.basis_labels_b.index((n - n_a, k - k_a))
    return state.matrix[ia, ib]


class TestSplitDickeBeamsplitter:
    def test_all_particles_on_a(self):
        state = split_dicke_beamsplitter(1, 2, 1.0)
        mat = state.matrix
        live = np.argwhere(np.abs(mat) > 1e-12)
        for i, j in live:
            n_a, _ = state.basis_labels_a[i]
            assert n_a == 2

    def test_two_particle_half_split(self):
        state = split_dicke_beamsplitter(1, 2, 0.5)
        weights = np.abs(state.amplitudes[np.abs(state.amplitudes) > 0]) ** 2
        assert abs(weights.sum() - 1.0) < 1e-12
        # expanding (sqrt(p) a_A + sqrt(1-p) a_B)(sqrt(p) b_A + sqrt(1-p) b_B)|0>
        # puts weight 1/4 on each of the four particle arrangements
        both_sides = [
            abs(partition_amplitude(state, 2, 1, 1, k_a)) ** 2 for k_a in (0, 1)
        ]
        assert np.allclose(both_sides, 0.25)

    def test_reduced_variance_closed_form(self):
        for n, k, p in [(4, 2, 0.5), (6, 3, 0.3), (8, 2, 0.7)]:
            state = split_dicke_beamsplitter(k, n, p)
            labels_b = state.basis_labels_b
            jz_vals = np.array([kb - nb / 2.0 for (nb, kb) in labels_b])
            weights = np.sum(np.abs(state.matrix) ** 2, axis=0)
            mean = float(np.dot(weights, jz_vals))
            second = float(np.dot(weights, jz_vals**2))
            assert abs(second - mean**2 - n / 4.0 * p * (1 - p)) < 1e-10
            # E[k_B] - E[N_B]/2 with binomial splitting of excitations/particles
            assert abs(mean - (k - n / 2.0) * (1 - p)) < 1e-10

    def test_sector_conditioning(self):
        # conditioning on a fixed N_A sector gives the binomially weighted
        # superposition of the operator expansion, supported exactly on the
        # fixed-split window
        for n, k, p in [(6, 3, 0.5), (10, 4, 0.35), (20, 9, 0.6)]:
            state = split_dicke_beamsplitter(k, n, p)
            for n_a in range(1, n):
                lo, hi = dicke_bounds(k, n_a, n - n_a)
                amps = np.array(
                    [partition_amplitude(state, n, k, n_a, k_a).real for k_a in range(lo, hi + 1)]
                )
                norm = np.linalg.norm(amps)
                if norm < 1e-12:
                    continue
                amps = amps / norm
                ref = np.array(
                    [
                        math.sqrt(math.comb(k, k_a) * math.comb(n - k, n_a - k_a))
                        for k_a in range(lo, hi + 1)
                    ]
                )
                ref = ref / np.linalg.norm(ref)
                assert np.max(np.abs(amps - ref)) < 1e-12
                # support coincides with the fixed-split window
                fixed = split_dicke_fixed(k, n_a, n - n_a)
                window = {
                    ka
                    for ka in range(n_a + 1)
                    if 0 <= k - ka <= n - n_a and abs(fixed.matrix[ka, k - ka]) > 0
                }
                assert window == set(range(lo, hi + 1))

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            split_dicke_beamsplitter(3, 2, 0.5)
        with pytest.raises(ValidationError):
            split_dicke_beamsplitter(1, 2, 1.5)


class TestFockAndCat:
    def test_commutator_on_safe_subspace(self):
        mode = fock_space(25)
        comm = mode.x @ mode.p - mode.p @ mode.x
        sub = comm[: 23, : 23]
        assert np.max(np.abs(sub - 1j * np.eye(23))) < 1e-8

    def test_vacuum_variance(self):
        mode = fock_space(20)
        vac = np.zeros(20)
        vac[0] = 1.0
        assert abs(variance(vac, mode.x) - 0.5) < 1e-10
        assert abs(variance(vac, mode.p) - 0.5) < 1e-10

    def test_default_cutoff_tail_rule(self):
        assert default_fock_cutoff(0.0) == 20
        cut = default_fock_cutoff(2.0)
        assert cut >= 20
        # Poisson(4) tail above the cutoff is below 1e-12
        from scipy.stats import poisson

        assert poisson.sf(cut - 1, 4.0) < 1e-12

    def test_coherent_overlap(self):
        for alpha in (0.5, 1.0, 1.7):
            cut = default_fock_cutoff(alpha)
            plus = coherent_amplitudes(alpha, cut)
            minus = coherent_amplitudes(-alpha, cut)
            overlap = np.vdot(plus, minus).real
            assert abs(overlap - math.exp(-2 * alpha**2)) < 1e-10

    def test_cat_alpha_zero_separable(self):
        state = hybrid_cat(0.0)
        mat = state.matrix
        # rank-1 amplitude matrix: (|0>+|1>)/sqrt2 (x) |vac>
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[0] > 1 - 1e-12
        assert np.all(s[1:] < 1e-12)

    def test_cat_schmidt_eigenvalues(self):
        for alpha in (0.6, 1.0):
            state = hybrid_cat(alpha)
            vals = np.linalg.eigvalsh(partial_trace(np.outer(state.amplitudes, state.amplitudes.conj()), state.dims, "A"))
            expected = np.array([(1 - math.exp(-2 * alpha**2)) / 2, (1 + math.exp(-2 * alpha**2)) / 2])
            assert np.allclose(np.sort(vals), expected, atol=1e-10)

    @pytest.mark.parametrize(
        "alpha", [round(0.05 * i, 12) for i in range(41)] + [28.0885, 30.0, 44.72, 45.0, 47.0]
    )
    def test_default_cutoff_is_smallest_closing_n(self, alpha):
        # the smallest n >= 20 with P(N >= n) <= 1e-12, on the cat table's grid and where a running sum failed
        from scipy.stats import poisson

        cut = default_fock_cutoff(alpha)
        assert poisson.sf(cut - 1, alpha**2) <= 1e-12
        assert cut == 20 or poisson.sf(cut - 2, alpha**2) > 1e-12

    def test_cat_builds_past_alpha_28(self):
        for alpha in (28.0885, 30.0):
            state = hybrid_cat(alpha)
            assert state.dims == (2, default_fock_cutoff(alpha))


class TestCollectiveJz:
    def test_matches_kron_sum(self):
        n = 3
        sz = np.diag([1.0, -1.0])
        acc = np.zeros((8, 8))
        for i in range(n):
            ops = [np.eye(2)] * n
            ops[i] = sz
            term = ops[0]
            for o in ops[1:]:
                term = np.kron(term, o)
            acc = acc + term
        jz = collective_jz(n)
        assert jz.shape == (8,) and jz.dtype == float  # the real diagonal
        assert np.allclose(np.diag(jz), acc / 2)


class TestBipartitePureState:
    def test_norm_guard(self):
        with pytest.raises(ValidationError):
            BipartitePureState(dims=(2, 2), amplitudes=np.array([1.0, 0, 0, 0.2]))

    def test_reduced_consistency(self, rng):
        from conftest import random_pure

        vec = random_pure(rng, 12)
        state = BipartitePureState(dims=(3, 4), amplitudes=vec)
        rho = np.outer(vec, vec.conj())
        assert np.allclose(reduced_b(state), partial_trace(rho, (3, 4), "B"))


class TestStateErrors:
    def test_negative_particle_count(self):
        with pytest.raises(ValidationError):
            spin_ops(-1)

    def test_variance_dim_mismatch(self):
        from steerkit.metrology import variance

        with pytest.raises(ValidationError):
            variance(np.array([1.0, 0.0]), np.eye(3))
