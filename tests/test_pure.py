import math

import numpy as np
import pytest
import scipy.optimize

from steerkit.assemblage import (
    assemblage_from_pure_state,
    assemblage_from_state,
    conditional_qfi,
    conditional_variance,
    setting_average_qfi,
    setting_average_variance,
)
from steerkit.linalg import ValidationError, dagger
from steerkit.metrology import povm_from_basis, qfi, variance
from steerkit.pure import (
    ancilla_invariance_check,
    assemblage_delta,
    gellmann_basis,
    multi_generator_sum,
    optimal_povm_qfi,
    optimal_povm_var,
    pure_multi_generator_value,
    qubit_direction_gap,
    s_avg_pure,
    s_max_lower_bound,
    s_max_pure,
    schmidt,
)
from steerkit.experiments import maximally_entangled_assemblage
from steerkit.states import BipartitePureState, ghz_state, hybrid_cat

from conftest import SZ, random_density, random_hermitian, random_pure, random_unitary, reduced_b


def pure_state_with_spectrum(p, d_a=None):
    """|psi> = sum_i sqrt(p_i) |ii> over dims (d_a, len(p))."""
    p = np.asarray(p, dtype=float)
    d_b = p.size
    d_a = d_a or d_b
    amps = np.zeros(d_a * d_b, dtype=complex)
    for i in range(min(d_a, d_b)):
        amps[i * d_b + i] = math.sqrt(p[i])
    return BipartitePureState(dims=(d_a, d_b), amplitudes=amps / np.linalg.norm(amps))


def delta_for_generator(p, h):
    """Oracle: Var - F_Q/4 on rho = diag(p), evaluated with the metrology functions."""
    rho = np.diag(np.asarray(p, dtype=float)).astype(complex)
    return variance(rho, h) - qfi(rho, h) / 4.0


def batched_delta(p, hs):
    """Vectorized Var - F/4 for a batch of generators against rho = diag(p).

    Spot-checked against the metrology functions in
    test_batched_oracle_matches_pointwise.
    """
    p = np.asarray(p, dtype=float)
    habs2 = np.abs(hs) ** 2
    diag = np.real(np.einsum("nii->ni", hs))
    second = np.einsum("ni,i->n", np.real(np.einsum("nij,njk->nik", hs, hs).diagonal(axis1=1, axis2=2)), p)
    first = diag @ p
    var = second - first**2
    pair_sum = p[:, None] + p[None, :]
    diff2 = (p[:, None] - p[None, :]) ** 2
    w = np.zeros_like(pair_sum)
    mask = pair_sum > 1e-12
    w[mask] = diff2[mask] / pair_sum[mask]
    f = 2.0 * np.einsum("ij,nij->n", w, habs2)
    return var - f / 4.0


def sample_generators(rng, d, n):
    basis = gellmann_basis(d)
    coeffs = rng.standard_normal((n, len(basis.generators)))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    mats = np.einsum("nc,cij->nij", coeffs, np.stack(basis.generators))
    return coeffs, mats


class TestSchmidt:
    def test_product_state(self):
        state = pure_state_with_spectrum([1.0, 0.0])
        sd = schmidt(state)
        assert abs(sd.coefficients[0] - 1.0) < 1e-12

    def test_bell_state(self):
        sd = schmidt(ghz_state(2))
        assert np.allclose(sd.coefficients, [0.5, 0.5])

    def test_cat_coefficients(self):
        for alpha in (0.4, 1.1):
            sd = schmidt(hybrid_cat(alpha))
            gram = math.exp(-2 * alpha**2)
            assert np.allclose(sd.coefficients, [(1 + gram) / 2, (1 - gram) / 2], atol=1e-10)

    def test_reconstruction(self, rng):
        vec = random_pure(rng, 12)
        state = BipartitePureState(dims=(3, 4), amplitudes=vec)
        sd = schmidt(state)
        assert abs(sd.coefficients.sum() - 1.0) < 1e-12
        rebuilt = np.zeros((3, 4), dtype=complex)
        for i, p in enumerate(sd.coefficients):
            rebuilt += math.sqrt(p) * np.outer(sd.basis_a[:, i], sd.basis_b[:, i])
        assert np.max(np.abs(rebuilt - state.matrix)) < 1e-10


class TestOptimalPOVMs:
    def test_achieves_concave_roof(self, rng):
        for d in (2, 3, 4):
            for _ in range(25):
                state = BipartitePureState(dims=(d, d), amplitudes=random_pure(rng, d * d))
                h = random_hermitian(rng, d)
                povm = optimal_povm_qfi(state, h)
                asm = assemblage_from_pure_state(state, [("opt", povm)])
                achieved = conditional_qfi(asm, h)[0]
                target = 4.0 * variance(reduced_b(state), h)
                assert abs(achieved - target) <= 1e-8 * max(target, 1e-6)

    def test_achieves_convex_roof(self, rng):
        for d in (2, 3, 4):
            for _ in range(25):
                state = BipartitePureState(dims=(d, d), amplitudes=random_pure(rng, d * d))
                h = random_hermitian(rng, d)
                povm = optimal_povm_var(state, h)
                asm = assemblage_from_pure_state(state, [("opt", povm)])
                achieved = conditional_variance(asm, h)[0]
                target = qfi(reduced_b(state), h) / 4.0
                assert abs(achieved - target) <= 1e-8 * max(target, 1e-6)

    def test_bell_state_var_setting_kills_variance(self):
        state = ghz_state(2)
        povm = optimal_povm_var(state, SZ)
        asm = assemblage_from_pure_state(state, [("opt", povm)])
        assert conditional_variance(asm, SZ)[0] < 1e-12

    def test_fourier_basis_zeroes_x_diagonals(self, rng):
        # the steered conditionals must all share the reduced-state mean of H
        for _ in range(10):
            d = int(rng.integers(2, 5))
            state = BipartitePureState(dims=(d, d), amplitudes=random_pure(rng, d * d))
            h = random_hermitian(rng, d)
            rho_b = reduced_b(state)
            mean = float(np.trace(rho_b @ h).real)
            povm = optimal_povm_qfi(state, h)
            psi = state.matrix
            for k in povm.factors:
                amp = k[:, 0].conj() @ psi
                q = float(np.vdot(amp, amp).real)
                if q < 1e-12:
                    continue
                cond_mean = float(np.vdot(amp, h @ amp).real) / q
                assert abs(cond_mean - mean) < 1e-8

    def test_fourier_combination_kills_x_diagonal(self, rng):
        # independent reconstruction of X = sqrt(rho) H sqrt(rho) - <H> rho on
        # the support: the Fourier-combined eigenbasis has vanishing diagonals
        for _ in range(10):
            d = int(rng.integers(2, 5))
            state = BipartitePureState(dims=(d, d), amplitudes=random_pure(rng, d * d))
            h = random_hermitian(rng, d)
            sd = schmidt(state)
            r = sd.rank
            p = sd.coefficients[:r]
            b = sd.basis_b[:, :r]
            h_t = dagger(b) @ h @ b
            root = np.sqrt(p)
            x_op = root[:, None] * h_t * root[None, :] - float(np.dot(p, h_t.diagonal().real)) * np.diag(p)
            _, vecs = np.linalg.eigh(x_op)
            k = np.arange(r)
            fourier = np.exp(2j * np.pi * np.outer(k, k) / r) / math.sqrt(r)
            combined = vecs @ fourier
            diags = np.einsum("ik,ij,jk->k", combined.conj(), x_op, combined)
            assert np.max(np.abs(diags)) < 1e-10

    def test_rank_deficient_reduced_state(self, rng):
        # Schmidt rank 2 inside a 4x4 system: kernel outcomes get zero weight,
        # the POVM stays complete, and the roofs are still achieved
        spectrum = np.array([0.7, 0.3, 0.0, 0.0])
        state = pure_state_with_spectrum(spectrum)
        h = random_hermitian(rng, 4)
        for builder, target_fn in (
            (optimal_povm_qfi, lambda r: 4.0 * variance(r, h)),
            (optimal_povm_var, lambda r: qfi(r, h) / 4.0),
        ):
            povm = builder(state, h)
            assert povm.n_outcomes == 4
            total = sum(k @ k.conj().T for k in povm.factors)
            assert np.max(np.abs(total - np.eye(4))) < 1e-10
            asm = assemblage_from_pure_state(state, [("opt", povm)])
            rho_b = reduced_b(state)
            if builder is optimal_povm_qfi:
                achieved = conditional_qfi(asm, h)[0]
            else:
                achieved = conditional_variance(asm, h)[0]
            assert abs(achieved - target_fn(rho_b)) < 1e-8 * max(target_fn(rho_b), 1e-6)

    def test_rectangular_alice(self, rng):
        state = BipartitePureState(dims=(5, 3), amplitudes=random_pure(rng, 15))
        h = random_hermitian(rng, 3)
        povm = optimal_povm_qfi(state, h)
        assert povm.n_outcomes == 5
        asm = assemblage_from_pure_state(state, [("opt", povm)])
        target = 4.0 * variance(reduced_b(state), h)
        assert abs(conditional_qfi(asm, h)[0] - target) < 1e-8 * max(target, 1e-6)


class TestGellmann:
    def test_qubit_paulis(self):
        basis = gellmann_basis(2)
        assert len(basis.generators) == 3
        sx, sy, sz = (g * math.sqrt(2) for g in basis.generators)
        assert np.allclose(sx, np.array([[0, 1], [1, 0]]))
        assert np.allclose(sy, np.array([[0, -1j], [1j, 0]]))
        assert np.allclose(sz, np.diag([1, -1]))

    def test_orthonormal_and_traceless(self):
        for d in (2, 3, 5):
            basis = gellmann_basis(d)
            gens = basis.generators
            assert len(gens) == d * d - 1
            for i, g in enumerate(gens):
                assert abs(np.trace(g)) < 1e-12
                assert np.max(np.abs(g - dagger(g))) < 1e-14
                for j, h in enumerate(gens):
                    inner = np.trace(dagger(g) @ h).real
                    assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10

    def test_variance_sum_identity(self, rng):
        # sum_i 4 Var[phi, H_i] = 4(d-1) for every pure |phi>
        for d in (2, 3, 4):
            basis = gellmann_basis(d)
            for _ in range(5):
                phi = random_pure(rng, d)
                total = sum(4.0 * variance(phi, g) for g in basis.generators)
                assert abs(total - 4.0 * (d - 1)) < 1e-9


class TestQuantifiers:
    def test_trivial_spectra(self):
        assert s_max_pure([1.0, 0.0, 0.0]) == 0.0
        assert s_avg_pure([1.0, 0.0]) == 0.0

    def test_bell_values(self):
        # hand eigensolve of [[1/4,-1/4],[-1/4,1/4]] gives 1/2
        assert abs(s_max_pure([0.5, 0.5]) - 0.5) < 1e-12
        assert abs(s_avg_pure([0.5, 0.5]) - 1.5) < 1e-12

    def test_batched_oracle_matches_pointwise(self, rng):
        p = rng.dirichlet(np.ones(4))
        _, mats = sample_generators(rng, 4, 10)
        batch = batched_delta(p, mats)
        for i in range(10):
            assert abs(batch[i] - delta_for_generator(p, mats[i])) < 1e-10

    def test_s_max_dominates_samples_and_is_reachable(self, rng):
        for d in (2, 3, 4, 5):
            p = rng.dirichlet(np.ones(d))
            _, mats = sample_generators(rng, d, 20000)
            deltas = batched_delta(p, mats)
            closed = s_max_pure(p)
            assert float(deltas.max()) <= closed + 1e-10
            # crude refinement: power iteration on the quadratic form is not
            # allowed as oracle, so polish by local resampling around the best
            best = mats[int(np.argmax(deltas))]
            basis = gellmann_basis(d)
            vec = np.array([np.trace(dagger(g) @ best).real for g in basis.generators])
            vec /= np.linalg.norm(vec)

            def neg_delta(v):
                v = v / np.linalg.norm(v)
                return -delta_for_generator(p, np.tensordot(v, basis.generators, 1))

            res = scipy.optimize.minimize(neg_delta, vec, method="BFGS",
                                          options={"gtol": 1e-12, "maxiter": 5000})
            val = -res.fun
            assert closed - val <= 1e-4
            assert val <= closed + 1e-10

    def test_s_max_invariances(self, rng):
        p = rng.dirichlet(np.ones(4))
        val = s_max_pure(p)
        assert abs(s_max_pure(np.roll(p, 2)) - val) < 1e-12
        assert abs(s_max_pure(np.concatenate([p, [0.0, 0.0]])) - val) < 1e-12

    def test_s_avg_matches_sphere_average(self, rng):
        d = 3
        p = rng.dirichlet(np.ones(d))
        n_samples = 100_000
        _, mats = sample_generators(rng, d, n_samples)
        deltas = batched_delta(p, mats)
        scaled = (d * d - 1) * deltas
        mean = float(scaled.mean())
        stderr = float(scaled.std(ddof=1)) / math.sqrt(n_samples)
        assert abs(mean - s_avg_pure(p)) <= 3.0 * stderr

    def test_invalid_distribution(self):
        with pytest.raises(ValidationError):
            s_max_pure([0.5, 0.2])

    def test_stack_matches_one_at_a_time(self, rng):
        stack = rng.dirichlet(np.ones(5), size=(4, 3))
        s_max, s_avg = s_max_pure(stack), s_avg_pure(stack)
        assert s_max.shape == s_avg.shape == (4, 3)
        assert isinstance(s_max_pure(stack[0, 0]), float) and isinstance(s_avg_pure(stack[0, 0]), float)
        for idx in np.ndindex(4, 3):
            assert s_max[idx] == s_max_pure(stack[idx])
            assert s_avg[idx] == s_avg_pure(stack[idx])

    def test_stack_with_one_bad_row_rejected(self):
        stack = np.array([[0.5, 0.5, 0.0], [0.2, 0.2, 0.6], [0.5, 0.2, 0.2], [1.0, 0.0, 0.0]])
        for fn in (s_max_pure, s_avg_pure):
            with pytest.raises(ValidationError, match=r"stack index \(2,\): min 0.2, sum 0.8999"):
                fn(stack)
        stack[2, 2] = 0.3
        stack[1] = [0.7, 0.4, -0.1]
        with pytest.raises(ValidationError, match=r"stack index \(1,\)"):
            s_max_pure(stack)


def random_mixed_assemblage(rng, n_settings, d_a=3, d_b=3):
    """Projective settings of Alice on a noisy random entangled state."""
    psi = random_pure(rng, d_a * d_b)
    rho = 0.8 * np.outer(psi, psi.conj()) + 0.2 * random_density(rng, d_a * d_b)
    povms = [(f"X{i}", povm_from_basis(random_unitary(rng, d_a))) for i in range(n_settings)]
    return assemblage_from_state(rho, (d_a, d_b), povms)


def polarized_matrices(rec, gens):
    """Q_X and V_X of one setting by polarizing its averaged QFI and variance."""
    n = len(gens)
    q, v = np.zeros((n, n)), np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            for out, f in ((q, setting_average_qfi), (v, setting_average_variance)):
                out[a, b] = (f(rec, gens[a] + gens[b]) - f(rec, gens[a]) - f(rec, gens[b])) / 2.0
    return q, v


class TestSMaxLowerBound:
    def test_bell_assemblage_reaches_closed_form(self):
        state = ghz_state(2)
        # settings: optimal POVMs for two independent generators cover the sphere
        basis = gellmann_basis(2)
        settings = [(f"g{i}", optimal_povm_qfi(state, g)) for i, g in enumerate(basis.generators)]
        settings += [(f"v{i}", optimal_povm_var(state, g)) for i, g in enumerate(basis.generators)]
        asm = assemblage_from_pure_state(state, settings)
        val = s_max_lower_bound(asm)
        closed = s_max_pure([0.5, 0.5])
        assert val <= closed + 1e-9
        assert closed - val <= 1e-12

    @pytest.mark.parametrize("seed, n_settings", [(30, 2), (35, 3)])
    def test_mixed_qutrit_optimum_dominates_and_is_attained(self, seed, n_settings):
        rng = np.random.default_rng(seed)
        asm = random_mixed_assemblage(rng, n_settings)
        val = s_max_lower_bound(asm)
        basis = gellmann_basis(3)
        for _ in range(2000):
            c = rng.standard_normal(len(basis.generators))
            assert assemblage_delta(asm, np.tensordot(c / np.linalg.norm(c), basis.generators, 1)) <= val + 1e-12
        mats = [polarized_matrices(rec, basis.generators) for rec in asm.settings]
        spectra = [np.linalg.eigh(q / 4.0 - v) for q, _ in mats for _, v in mats]
        top, vecs = max(spectra, key=lambda spec: spec[0][-1])
        assert val > 0.0
        assert abs(top[-1] - val) <= 1e-10
        assert abs(assemblage_delta(asm, np.tensordot(vecs[:, -1], basis.generators, 1)) - val) <= 1e-10

    def test_lhs_assemblage_stays_at_zero(self, rng):
        from test_assemblage import random_lhs_model
        from steerkit.assemblage import assemblage_from_lhs

        asm = assemblage_from_lhs(random_lhs_model(rng, d_b=2))
        assert s_max_lower_bound(asm) == 0.0


class TestMultiGenerator:
    def test_bell_value_six(self):
        from steerkit.experiments import maximally_entangled_assemblage

        asm, _ = maximally_entangled_assemblage(2)
        value, bound = multi_generator_sum(asm, gellmann_basis(2))
        assert abs(value - 6.0) < 1e-9 * 6.0
        assert bound == 4.0
        assert value > bound

    def test_product_state_below_bound(self, rng):
        state = pure_state_with_spectrum([1.0, 0.0, 0.0])
        basis = gellmann_basis(3)
        settings = [(f"g{i}", optimal_povm_qfi(state, g)) for i, g in enumerate(basis.generators)]
        asm = assemblage_from_pure_state(state, settings)
        value, bound = multi_generator_sum(asm, basis)
        assert value <= bound + 1e-9

    def test_pure_state_formula(self, rng):
        for d in (2, 3):
            p = rng.dirichlet(np.ones(d))
            state = pure_state_with_spectrum(p)
            basis = gellmann_basis(d)
            settings = [(f"g{i}", optimal_povm_qfi(state, g)) for i, g in enumerate(basis.generators)]
            asm = assemblage_from_pure_state(state, settings)
            value, _ = multi_generator_sum(asm, basis)
            assert abs(value - pure_multi_generator_value(p)) < 1e-8 * max(value, 1.0)


DIRECTIONS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0.3, -2.0, 0.7))


def qubit_gaps(state):
    """cond_qfi - 4 cond_var over ``DIRECTIONS``, and the identity's 8 (1 - tr[rho_B^2])."""
    gaps = np.array([qubit_direction_gap(state, n) for n in DIRECTIONS])
    return gaps, 8.0 * (1.0 - float(np.sum(schmidt(state).coefficients ** 2)))


class TestQubitGap:
    def test_product_state_zero(self):
        gaps, rhs = qubit_gaps(pure_state_with_spectrum([1.0, 0.0]))
        assert np.max(np.abs(gaps)) < 1e-10
        assert abs(rhs) < 1e-12

    def test_bell_state_four(self):
        gaps, rhs = qubit_gaps(ghz_state(2))
        assert np.max(np.abs(gaps - 4.0)) < 1e-8
        assert abs(rhs - 4.0) < 1e-12

    def test_random_states_match_purity(self, rng):
        for _ in range(10):
            gaps, rhs = qubit_gaps(BipartitePureState(dims=(2, 2), amplitudes=random_pure(rng, 4)))
            assert np.max(np.abs(gaps - rhs)) < 1e-8

    def test_direction_independent(self, rng):
        gaps, _ = qubit_gaps(BipartitePureState(dims=(2, 2), amplitudes=random_pure(rng, 4)))
        assert max(gaps) - min(gaps) < 1e-8

    def test_swapped_cat_purity_curve(self):
        # oscillator on Alice's side, qubit on Bob's: the gap equals
        # 4(1 - e^{-4 alpha^2}) independent of the generator direction
        for alpha in (0.4, 0.9):
            cat = hybrid_cat(alpha)
            swapped = BipartitePureState(
                dims=(cat.d_b, 2), amplitudes=cat.matrix.T.reshape(-1)
            )
            gaps, rhs = qubit_gaps(swapped)
            target = 4.0 * (1.0 - math.exp(-4.0 * alpha**2))
            assert abs(rhs - target) < 1e-10
            assert np.max(np.abs(gaps - target)) < 1e-8

    def test_rejects_larger_bob(self, rng):
        state = BipartitePureState(dims=(2, 3), amplitudes=random_pure(rng, 6))
        with pytest.raises(ValidationError):
            qubit_direction_gap(state, (0, 0, 1))


class TestAncilla:
    def test_bell_with_vacuum_ancilla(self):
        assert ancilla_invariance_check(ghz_state(2), 3)

    def test_random_states(self, rng):
        for _ in range(5):
            state = BipartitePureState(dims=(3, 3), amplitudes=random_pure(rng, 9))
            assert ancilla_invariance_check(state, 4)

    def test_product_state(self):
        assert ancilla_invariance_check(pure_state_with_spectrum([1.0, 0.0]), 2)


class TestMultiGeneratorSum:
    """sum_i max_X (Q_X)_ii from the stored spectra equals the per-generator conditional QFI loop."""

    @staticmethod
    def per_generator(asm, basis):
        return sum(conditional_qfi(asm, g)[0] for g in basis.generators)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_maximally_entangled(self, d):
        asm, _ = maximally_entangled_assemblage(d)
        basis = gellmann_basis(d)
        value, bound = multi_generator_sum(asm, basis)
        assert abs(value - self.per_generator(asm, basis)) < 1e-12 * value
        assert bound == 4.0 * (d - 1)

    def test_seeded_mixed(self):
        rng = np.random.default_rng(41)
        asm = random_mixed_assemblage(rng, 3)
        basis = gellmann_basis(3)
        value, _ = multi_generator_sum(asm, basis)
        assert abs(value - self.per_generator(asm, basis)) < 1e-12 * value
