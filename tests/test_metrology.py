import dataclasses
import re

import numpy as np
import pytest
import scipy.optimize

from steerkit.linalg import TOL, Spectrum, ValidationError, commutator, stack
from steerkit.assemblage import SettingRecord, setting_average_qfi, setting_average_variance
from steerkit.metrology import as_state, expectation, make_povm, povm_from_basis, qfi, variance
from steerkit.experiments import spin_x_setting
from steerkit.pure import gellmann_basis
from steerkit.states import coherent_amplitudes, fock_space, white_noise_mixture, wigner_rotation_matrix

from conftest import I2, SX, SY, SZ, cfi, outer, random_density, random_floored_state, random_hermitian, random_pure, random_unitary, reduced_b

PLUS = np.array([1, 1]) / np.sqrt(2)


class TestPOVM:
    def test_rejects_non_positive_effect(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            make_povm([np.diag([1.5, -0.5]).astype(complex), np.diag([-0.5, 1.5]).astype(complex)])

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError, match="identity"):
            make_povm([np.diag([0.5, 0.5]).astype(complex)])

    def test_projective_factory(self):
        povm = povm_from_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert len(povm.factors) == 2
        assert np.allclose(sum(k @ k.conj().T for k in povm.factors), I2)

    def test_projective_factory_rejects_incomplete_basis(self):
        with pytest.raises(ValidationError, match="deviates from identity"):
            povm_from_basis(np.diag([1.0, 0.9]))

    def test_projective_factory_rejects_label_mismatch(self):
        with pytest.raises(ValidationError, match="labels and effects differ"):
            povm_from_basis(np.eye(2), labels=["only"])

    def test_projective_factory_certifies_rank_one(self):
        basis = random_unitary(np.random.default_rng(5), 3)
        povm = povm_from_basis(basis, labels="abc")
        assert povm.labels == ("a", "b", "c")
        for k, vec in zip(povm.factors, basis.T):
            assert np.allclose(k @ k.conj().T, outer(vec), atol=1e-15)


class TestPOVMFactors:
    """Each outcome is stored as its factor K_a alone, E_a = K_a K_a^dag, and read through it."""

    def test_projective_povm_holds_only_its_basis(self):
        basis = np.asarray(wigner_rotation_matrix(100, np.pi / 2.0), dtype=complex)
        povm = spin_x_setting(100)
        assert [f.name for f in dataclasses.fields(povm)] == ["factors", "labels"]
        assert [k.shape for k in povm.factors] == [(101, 1)] * 101
        assert sum(k.nbytes for k in povm.factors) == basis.nbytes

    def test_make_povm_factors_reproduce_effects_at_their_rank(self, rng):
        d = 4
        u, v = random_unitary(rng, d), random_unitary(rng, d)
        weights = np.array([[0.3, 0.7, 0.0, 0.0], [0.7, 0.0, 0.5, 0.0], [0.0, 0.3, 0.5, 1.0]])
        cases = (
            ([0.5 * (outer(u[:, i]) + outer(v[:, i])) for i in range(d)], [2] * d),  # unsharp
            ([(u * w) @ u.conj().T for w in weights], [2, 2, 3]),  # rank-deficient
        )
        for effects, ranks in cases:
            povm = make_povm(effects)
            assert [k.shape for k in povm.factors] == [(d, r) for r in ranks]
            for k, eff in zip(povm.factors, effects):
                assert np.max(np.abs(k @ k.conj().T - eff)) < 1e-12

class TestVariance:
    def test_eigenstate_zero(self):
        assert variance(np.array([1.0, 0.0]), SZ) == 0.0

    def test_plus_state_sigma_z(self):
        # <sz^2> = 1, <sz> = 0 on |+>
        assert abs(variance(PLUS, SZ) - 1.0) < 1e-14

    def test_split_twin_fock_reduced(self):
        # uniform mixture of |k_B>, k_B = 0..N/2 under Jz: variance N(N+4)/48
        from steerkit.states import spin_ops, split_dicke_fixed

        n = 8
        state = split_dicke_fixed(n // 2, n // 2, n // 2)
        rho_b = reduced_b(state)
        jz = spin_ops(n // 2).jz
        assert abs(variance(rho_b, jz) - n * (n + 4) / 48) < 1e-12

    def test_matrix_and_vector_paths_agree(self, rng):
        v = random_pure(rng, 5)
        h = random_hermitian(rng, 5)
        assert abs(variance(v, h) - variance(outer(v), h)) < 1e-10


class TestQFI:
    def test_pure_state_equals_four_variances(self, rng):
        for d in (2, 3, 5):
            v = random_pure(rng, d)
            h = random_hermitian(rng, d)
            f_matrix = qfi(outer(v), h)
            target = 4.0 * variance(v, h)
            assert abs(f_matrix - target) < 1e-10 * max(target, 1.0)
            assert abs(qfi(v, h) - target) < 1e-12

    def test_commuting_state_zero(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert qfi(rho, SZ) < 1e-12

    def test_white_noise_qubit_value(self):
        # p|+><+| + (1-p) I/2 with p = 1/2 under sz: closed form gives 1
        rho = 0.5 * outer(PLUS) + 0.5 * I2 / 2
        assert abs(qfi(rho, SZ) - 1.0) < 1e-12

    def test_bounded_by_four_variances(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            h = random_hermitian(rng, d)
            assert qfi(rho, h) <= 4.0 * variance(rho, h) + 1e-9

    def test_convexity_and_unitary_invariance(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            rho1 = random_density(rng, d)
            rho2 = random_density(rng, d)
            h = random_hermitian(rng, d)
            for t in np.linspace(0.0, 1.0, 7):
                mixed = t * rho1 + (1 - t) * rho2
                assert qfi(mixed, h) <= t * qfi(rho1, h) + (1 - t) * qfi(rho2, h) + 1e-9
                assert variance(mixed, h) >= t * variance(rho1, h) + (1 - t) * variance(rho2, h) - 1e-9
            u = random_unitary(rng, d)
            f0 = qfi(rho1, h)
            f1 = qfi(u @ rho1 @ u.conj().T, u @ h @ u.conj().T)
            assert abs(f0 - f1) <= 1e-9 * max(f0, 1.0)


def dense_qfi(rho, h, eps=TOL.qfi_eigen):
    """Full-eigenbasis spectral sum 2 sum_{l_i + l_j > eps} (l_i - l_j)^2 / (l_i + l_j) |H_ij|^2."""
    lam, vecs = np.linalg.eigh(rho)
    h2 = np.abs(vecs.conj().T @ h @ vecs) ** 2
    pair = lam[:, None] + lam[None, :]
    live = pair > eps
    return 2.0 * float(np.sum((lam[:, None] - lam[None, :])[live] ** 2 / pair[live] * h2[live]))


def dense_variance(rho, h):
    return float(np.trace(rho @ h @ h).real - np.trace(rho @ h).real ** 2)


def random_spectral_state(rng, d, r):
    """rho = V diag(lam) V^dag with r random orthonormal columns and random weights."""
    return Spectrum(rng.dirichlet(np.ones(r)), random_unitary(rng, d)[:, :r])


class TestRankR:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_spectral_states_match_dense_eigh(self, rng, d):
        for r in sorted({1, 2, d - 1, d}):
            for _ in range(5):
                st = random_spectral_state(rng, d, r)
                h = random_hermitian(rng, d)
                rho = st.reconstruct()
                f_ref, v_ref = dense_qfi(rho, h), dense_variance(rho, h)
                assert abs(qfi(st, h) - f_ref) <= 1e-12 * max(f_ref, 1.0)
                assert abs(variance(st, h) - v_ref) <= 1e-12 * max(v_ref, 1.0)

    def test_dense_matrix_keeps_positive_spectrum(self, rng):
        rho = random_density(rng, 5, rank=2)
        st = as_state(rho)
        assert np.all(st.eigenvalues > 0)
        assert np.max(np.abs(st.reconstruct() - rho)) < 1e-14

    def test_block_below_psd_floor_rejected(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            as_state(np.diag([1.0 + 2e-10, -2e-10]))


class TestQFIWhiteNoise:
    def test_endpoints(self, rng):
        v = random_pure(rng, 4)
        h = random_hermitian(rng, 4)
        assert abs(qfi(white_noise_mixture(v, 1.0), h) - 4 * variance(v, h)) < 1e-12
        assert qfi(white_noise_mixture(v, 0.0), h) == 0.0

    def test_matches_dense_qfi(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 9))
            v = random_pure(rng, d)
            h = random_hermitian(rng, d)
            p = float(rng.uniform(0.05, 0.95))
            dense = qfi(p * outer(v) + (1 - p) * np.eye(d) / d, h)
            closed = qfi(white_noise_mixture(v, p), h)
            assert abs(dense - closed) < 1e-8 * max(closed, 1.0)


class TestCFI:
    def test_upper_bounded_by_qfi(self, rng):
        for d in (2, 3, 4):
            for _ in range(100):
                rho = random_density(rng, d)
                h = random_hermitian(rng, d)
                basis = random_unitary(rng, d)
                povm = povm_from_basis(basis)
                assert cfi(povm, rho, h) <= qfi(rho, h) + 1e-9

    def test_optimal_basis_reaches_qfi(self, rng):
        # SLD-eigenbasis search: sweep projective bases, oracle = qfi
        for _ in range(5):
            v = random_pure(rng, 2)
            h = random_hermitian(rng, 2)
            rho = outer(v)
            target = qfi(rho, h)
            if target < 1e-6:
                continue

            def neg_cfi(angles):
                t, p = angles
                b0 = np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])
                b1 = np.array([-np.exp(-1j * p) * np.sin(t / 2), np.cos(t / 2)])
                povm = povm_from_basis(np.column_stack([b0, b1]))
                return -cfi(povm, rho, h)

            best = np.inf
            for t0 in np.linspace(0.1, np.pi - 0.1, 8):
                for p0 in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
                    res = scipy.optimize.minimize(neg_cfi, [t0, p0], method="Nelder-Mead")
                    best = min(best, res.fun)
            assert abs(-best - target) < 1e-6 * target


def moment_bound(rho, h, m):
    """The moment lower bound |<-i[H, M]>|^2 / Var[rho, M] on F_Q[rho, H]."""
    return expectation(rho, commutator(h, m)) ** 2 / variance(rho, m)


class TestCommutatorBound:
    """The QFI dominates every moment bound |<-i[H, M]>|^2 / Var[M]."""

    def test_pauli_hand_value(self):
        # rho = |0><0|, H = sx, M = sy: [sx, sy] = 2i sz, <sz> = 1, Var[sy] = 1
        rho = np.diag([1.0, 0.0]).astype(complex)
        val = moment_bound(rho, SX, SY)
        assert abs(val - 4.0) < 1e-12
        assert abs(val - qfi(rho, SX)) < 1e-9

    def test_coherent_state_near_saturation(self):
        mode = fock_space(40)
        alpha = coherent_amplitudes(0.8, 40)
        rho = outer(alpha)
        bound = moment_bound(rho, mode.x, mode.p)
        f = qfi(rho, mode.x)
        assert bound <= f + 1e-9
        assert bound > 0.99 * f

    def test_below_qfi_random(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            rho = random_density(rng, d)
            h = random_hermitian(rng, d)
            m = random_hermitian(rng, d)
            if variance(rho, m) < 1e-10:
                continue
            assert moment_bound(rho, h, m) <= qfi(rho, h) + 1e-9


def floored_cases(rng):
    """Seeded floored states: d = 2..6, r = 1..d-1, floor 0, small, or equal to the smallest eigenvalue."""
    for d in range(2, 7):
        for r in range(1, d):
            for floor in (0.0, 1e-3, "min"):
                yield random_floored_state(rng, d, r, floor)


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(b), 1.0)


class TestFloor:
    """A floored spectrum gives what its dense reconstruction gives, to 1e-12 relative."""

    def test_functionals_match_reconstruction(self, rng):
        for st in floored_cases(rng):
            d = st.dim
            rho = st.reconstruct()
            assert close(float(np.trace(rho).real), 1.0)
            h = random_hermitian(rng, d)
            assert close(expectation(st, h), expectation(rho, h))
            assert close(variance(st, h), variance(rho, h))
            assert close(qfi(st, h), qfi(rho, h))

    def test_setting_matrices_match_reconstruction(self, rng):
        for d in range(2, 5):
            gens = np.stack(gellmann_basis(d).generators)
            states = [random_floored_state(rng, d, r, floor) for r in range(1, d) for floor in (0.0, 1e-3, "min")]
            probs = rng.dirichlet(np.ones(len(states)))
            floored = SettingRecord("x", probs, stack(states))
            dense = SettingRecord("x", probs, stack([as_state(st.reconstruct()) for st in states]))
            for average in (setting_average_qfi, setting_average_variance):
                got, ref = average(floored, gens), average(dense, gens)
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))

    def test_stacks_match_per_operator_values(self, rng):
        """Pure, mixed, floored and full-rank states: the diagonal of a stack is the
        per-operator value, and each off-diagonal entry is its polarisation."""
        cases = list(floored_cases(rng)) + [as_state(random_density(rng, d)) for d in range(2, 7)]
        for st in cases:
            hs = np.stack([random_hermitian(rng, st.dim) for _ in range(3)])
            for functional in (qfi, variance):
                mat = functional(st, hs)
                assert mat.shape == (3, 3)
                for a in range(3):
                    assert close(mat[a, a], functional(st, hs[a]))
                    for b in range(3):
                        polar = (functional(st, hs[a] + hs[b]) - functional(st, hs[a] - hs[b])) / 4.0
                        assert close(mat[a, b], polar)

    def test_stack_of_the_wrong_shape_is_rejected(self, rng):
        st = random_floored_state(rng, 3, 1, 1e-3)
        # a 1-D array is a diagonal operator: only one of the wrong length is a bad shape
        for bad in (np.zeros((2, 3, 4)), np.zeros((2, 4, 4)), np.zeros((1, 2, 3, 3)), np.zeros(4)):
            for functional in (qfi, variance):
                with pytest.raises(ValidationError, match="shape"):
                    functional(st, bad)

    def test_white_noise_floor_is_exact(self, rng):
        v = random_pure(rng, 5)
        st = Spectrum(np.array([0.7 + 0.3 / 5]), v[:, None], 0.3 / 5)
        assert np.max(np.abs(st.reconstruct() - (0.7 * outer(v) + 0.3 * np.eye(5) / 5))) < 1e-15
        assert qfi(Spectrum(np.array([0.2]), v[:, None], 0.2), random_hermitian(rng, 5)) == 0.0

    def test_as_state_checks_the_floor(self):
        v = np.eye(3, dtype=complex)
        assert as_state(Spectrum(np.array([0.2, 0.6]), v[:, :2], 0.2)).floor == 0.2
        with pytest.raises(ValidationError, match="negative floor"):
            as_state(Spectrum(np.array([0.6, 0.6]), v[:, :2], -0.2))
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            as_state(Spectrum(np.array([0.1, 0.7]), v[:, :2], 0.2))
        with pytest.raises(ValidationError, match="sum to"):
            as_state(Spectrum(np.array([0.5]), v[:, :1], 0.2))


class TestDiagonalOperators:
    """A diagonal operator passed as its real diagonal h gives what np.diag(h) gives, to 1e-12 relative."""

    @staticmethod
    def cases(rng):
        """(kind, state) on d = 6: pure, rank-3 mixed, floored rank 2, and full rank."""
        yield "pure", as_state(random_pure(rng, 6))
        yield "mixed", random_floored_state(rng, 6, 3, 0.0)
        yield "floored", random_floored_state(rng, 6, 2, 0.05)
        yield "full-rank", as_state(random_density(rng, 6))

    def test_every_functional_matches_dense(self, rng):
        kinds = []
        for kind, st in self.cases(rng):
            kinds.append(kind)
            h = rng.standard_normal(st.dim)
            dense = np.diag(h)
            # states on which the QFI and the variance do not vanish
            assert qfi(st, dense) > 1e-2 and variance(st, dense) > 1e-2
            for functional in (expectation, variance, qfi):
                assert close(functional(st, h), functional(st, dense))
        assert kinds == ["pure", "mixed", "floored", "full-rank"]

    def test_complex_or_non_finite_diagonal_is_rejected(self, rng):
        from steerkit.linalg import require_hermitian

        st = random_floored_state(rng, 3, 1, 1e-3)
        for bad in (np.array([1.0, 1j, 0.0]), np.array([1.0, np.nan, 0.0]), np.array([np.inf, 0.0, 0.0])):
            with pytest.raises(ValidationError, match="diagonal"):
                require_hermitian(bad)
        # the functionals reject a complex dtype; finiteness, like a dense operator's
        # Hermiticity, is checked once by the entry points (``TestDiagonalGenerators``)
        for functional in (expectation, variance, qfi):
            with pytest.raises(ValidationError, match="diagonal must be real"):
                functional(st, np.array([1.0, 1j, 0.0]))
        # a complex dtype with imaginary parts inside the Hermiticity tolerance is a real diagonal
        out = require_hermitian(np.array([1.0, 2.0 + 1e-13j, 0.0]))
        assert out.dtype == float and np.array_equal(out, [1.0, 2.0, 0.0])


class TestStackedStates:
    """The states of a stack are evaluated in one call, each bit for bit as on its own (``==``)."""

    @staticmethod
    def operators(rng, d):
        """A dense observable, a real diagonal and a stack of three generators."""
        return [random_hermitian(rng, d), rng.standard_normal(d), np.stack([random_hermitian(rng, d) for _ in range(3)])]

    @staticmethod
    def assert_one_at_a_time(states, ops):
        for op in ops:
            functionals = (qfi, variance) + ((expectation,) if np.ndim(op) < 3 else ())
            for functional in functionals:
                got = functional(states, op)
                assert len(got) == len(states)
                for a, st in enumerate(states):
                    assert np.array_equal(got[a], functional(st, op)), (functional.__name__, a)

    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    def test_mixed_ranks(self, rng, floor):
        d = 4
        parts = [random_floored_state(rng, d, r, floor) for r in (1, 3, 2, 1, 3)]
        states = stack(parts)
        assert states.eigenvalues.shape == (5, 3) and states.eigenvectors.shape == (5, d, 3)
        for a, part in enumerate(parts):  # indexing gives the state back without its padding
            assert np.array_equal(states[a].eigenvalues, part.eigenvalues)
            assert np.array_equal(states[a].eigenvectors, part.eigenvectors) and states[a].floor == part.floor
        self.assert_one_at_a_time(states, self.operators(rng, d))

    def test_full_rank_next_to_rank_one_keeps_each_complement(self, rng):
        # padded to rank 3, the pure state still pairs its column with the complement, and the
        # full-rank state gains no complement term
        d = 3
        pure, full = as_state(random_pure(rng, d)), as_state(random_density(rng, d))
        states = stack([pure, full])
        for op in self.operators(rng, d)[:2]:
            got = qfi(states, op)
            assert got[0] == qfi(pure, op) and got[1] == qfi(full, op)
            assert close(got[0], 4.0 * variance(pure, op))
            assert close(got[1], qfi(full.reconstruct(), op))
        self.assert_one_at_a_time(states, self.operators(rng, d))

    def test_setting_with_an_outcome_below_the_probability_floor(self, rng):
        from steerkit.assemblage import assemblage_from_state

        # Alice's outcome "b" never occurs: it is dropped, and the kept outcomes keep their labels
        psi = np.zeros((3, 2), dtype=complex)
        psi[0], psi[2] = random_pure(rng, 2) * 0.6, random_pure(rng, 2) * 0.8
        rho = 0.9 * outer(psi.reshape(-1)) + 0.1 * np.eye(6) / 6.0
        povm = povm_from_basis(np.eye(3), labels=["a", "b", "c"])
        rec = assemblage_from_state(as_state(outer(psi.reshape(-1))), (3, 2), [("x", povm)]).settings[0]
        assert rec.outcomes == ("a", "c") and rec.n_outcomes == 2
        mixed = assemblage_from_state(rho, (3, 2), [("x", povm)]).settings[0]
        assert mixed.outcomes == ("a", "b", "c")
        for r in (rec, mixed):
            self.assert_one_at_a_time(r.states, self.operators(rng, 2))
            h = random_hermitian(rng, 2)
            total = 0
            for p, st in zip(r.probabilities, r.states):  # left to right, as ``setting_average_qfi`` sums
                total = total + p * qfi(st, h)
            assert setting_average_qfi(r, h) == total


class TestEigenvectorCheck:
    """``as_state`` takes a spectrum's columns off the floor as finite unit vectors, and names the state."""

    BAD = {
        "nan": (np.array([[np.nan], [0.0]]), "squared norm deviates from 1 by nan"),
        "norm_2": (np.array([[2.0], [0.0]]), "squared norm deviates from 1 by 3.000e+00"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_as_state_rejects(self, case):
        vectors, detail = self.BAD[case]
        with pytest.raises(ValidationError, match=rf"rho eigenvector 0 is not a finite unit vector: {re.escape(detail)}"):
            as_state(Spectrum(np.ones(1), vectors), name="rho")

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_make_assemblage_rejects_by_setting_and_outcome(self, case):
        from steerkit.assemblage import make_assemblage

        vectors, detail = self.BAD[case]
        good = Spectrum(np.ones(1), np.array([[1.0], [0.0]], dtype=complex))
        bad = Spectrum(np.ones(1), vectors.astype(complex))
        rec = SettingRecord("z", np.array([0.5, 0.5]), (good, bad), ("z+", "z-"))
        with pytest.raises(ValidationError, match=rf"conditional state z/z- eigenvector 0 .* {re.escape(detail)}"):
            make_assemblage([rec], 2)

    @pytest.mark.parametrize(
        "eigenvectors", [np.array([[1.0], [0.0]]), np.array([1.0, 0.0])], ids=["one_column_for_two", "one_dimensional"]
    )
    def test_shape_mismatch_is_named(self, eigenvectors):
        from steerkit.assemblage import make_assemblage

        # without the check, stacking would broadcast the one column into both slots
        good = Spectrum(np.ones(1), np.array([[1.0], [0.0]], dtype=complex))
        bad = Spectrum(np.array([0.5, 0.5]) if eigenvectors.ndim == 2 else np.ones(1), eigenvectors.astype(complex))
        rec = SettingRecord("z", np.array([0.5, 0.5]), (good, bad), ("z+", "z-"))
        with pytest.raises(ValidationError, match=r"^conditional state z/z-: eigenvalues .* do not match"):
            make_assemblage([rec], 2)
        states = Spectrum(np.ones((2, 1)), np.zeros((2, 2, 2)), np.zeros(2))
        with pytest.raises(ValidationError, match=r"^a to b: eigenvalues \(2, 1\), eigenvectors \(2, 2, 2\)"):
            as_state(states, ["a", "b"])

    def test_padding_is_left_out(self, rng):
        states = stack([as_state(random_pure(rng, 3)), as_state(random_density(rng, 3))])
        assert np.all(states.eigenvectors[0, :, 1:] == 0.0)  # the pure state's padding: zero columns at its floor
        assert as_state(states, ["a", "b"]) is not None

    def test_a_state_without_columns_is_named_by_its_first_failing_check(self):
        # a state of rank 0 has no column to check; its trace (0.3 over d = 2) fails first
        with pytest.raises(ValidationError, match=r"rho eigenvalues sum to 0\.600000000000, not 1"):
            as_state(Spectrum(np.zeros(0), np.zeros((2, 0)), 0.3), name="rho")

    def test_second_state_of_a_stack_is_named(self, rng):
        bad = Spectrum(np.ones(1), np.array([[2.0], [0.0]], dtype=complex))
        states = stack([as_state(random_pure(rng, 2)), bad])
        with pytest.raises(ValidationError, match=r"^b eigenvector 0 is not a finite unit vector"):
            as_state(states, ["a", "b"])
        with pytest.raises(ValidationError, match=r"^rho\[1\] eigenvector 0"):
            as_state(states, "rho")


def test_expectation_takes_one_operator(rng):
    # a stack of operators is for ``variance`` and ``qfi``; ``expectation`` rejects it as not 2-D
    st = as_state(random_pure(rng, 2))
    with pytest.raises(ValidationError, match="operator must be 2-D"):
        expectation(st, np.stack([random_hermitian(rng, 2)] * 2))
