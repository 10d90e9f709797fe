import numpy as np
import pytest

from steerkit.linalg import (
    TOL,
    ValidationError,
    hermitian_eig,
    require_density_matrix,
    require_hermitian,
    require_state_vector,
    unitary_from_generator,
)

from conftest import I2, SX, SZ, partial_trace, random_density, random_hermitian, tensor


def test_tolerance_policy_values():
    assert TOL.herm == 1e-12
    assert TOL.psd == -1e-10
    assert TOL.sandwich == 1e-9


class TestValidation:
    def test_hermitian_accepts_within_tolerance(self):
        m = SX + 5e-13 * np.array([[0, 1j], [0, 0]])
        require_hermitian(m)

    def test_hermitian_rejects_beyond_tolerance(self):
        m = SX + 1e-10 * np.array([[0, 1j], [0, 0]])
        with pytest.raises(ValidationError):
            require_hermitian(m)

    def test_density_symmetrizes_input(self):
        rho = np.array([[0.5, 0.25 + 3e-13j], [0.25, 0.5]])
        out = require_density_matrix(rho)
        assert np.max(np.abs(out - out.conj().T)) == 0.0

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            require_density_matrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            require_density_matrix(rho)

    def test_state_vector_norm(self):
        require_state_vector(np.array([1, 1]) / np.sqrt(2))
        with pytest.raises(ValidationError):
            require_state_vector(np.array([1.0, 0.1]))


class TestHermitianEig:
    def test_identity(self):
        spec = hermitian_eig(np.eye(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_sigma_z_diagonal(self):
        spec = hermitian_eig(SZ)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        # ascending order puts |1> (eigenvalue -1) first
        assert abs(abs(spec.eigenvectors[1, 0]) - 1.0) < 1e-12
        assert abs(abs(spec.eigenvectors[0, 1]) - 1.0) < 1e-12

    def test_sigma_x_hand_solved(self):
        # 2x2 eigenproblem by hand: eigenvalues -+1, eigenvectors (|0> -+ |1>)/sqrt2
        spec = hermitian_eig(SX)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        minus = spec.eigenvectors[:, 0]
        plus = spec.eigenvectors[:, 1]
        assert abs(abs(np.vdot(minus, np.array([1, -1]) / np.sqrt(2))) - 1.0) < 1e-12
        assert abs(abs(np.vdot(plus, np.array([1, 1]) / np.sqrt(2))) - 1.0) < 1e-12

    def test_diagonal_needs_no_solver(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)
        spec = hermitian_eig(np.array([0.5, -1.0, 0.2]))
        assert np.array_equal(spec.eigenvalues, [-1.0, 0.2, 0.5])
        assert np.array_equal(spec.reconstruct(), np.diag([0.5, -1.0, 0.2]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0, 1], [0, 0]]))

    def test_reconstruction_random(self, rng):
        for d in (2, 5, 17, 64):
            h = random_hermitian(rng, d)
            spec = hermitian_eig(h)
            assert np.max(np.abs(spec.reconstruct() - h)) < 1e-10
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) < 1e-10


class TestTensor:
    def test_identity_product(self):
        assert np.allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_sigma_z_with_identity(self):
        assert np.allclose(tensor(SZ, I2), np.diag([1, 1, -1, -1]))

    def test_projector_with_sigma_x(self):
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = SX
        assert np.allclose(tensor(proj, SX), expected)


class TestPartialTrace:
    def test_product_state_factors(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = tensor(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 3), "A"), rho_a)
        assert np.allclose(partial_trace(joint, (2, 3), "B"), rho_b)

    def test_bell_state_marginal(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(rho, (2, 2), "B"), I2 / 2)
        assert np.allclose(partial_trace(rho, (2, 2), "A"), I2 / 2)

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 6)
        for keep in ("A", "B"):
            out = partial_trace(rho, (2, 3), keep)
            assert abs(np.trace(out).real - 1.0) < TOL.trace

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValidationError):
            partial_trace(random_density(rng, 6), (2, 2), "A")


class TestUnitaryFromGenerator:
    def test_zero_angle(self):
        assert np.allclose(unitary_from_generator(SZ, 0.0), np.eye(2))

    def test_half_spin_full_turn(self):
        # exp(-i 2pi sz/2) = diag(e^{-i pi}, e^{i pi}) = -identity
        u = unitary_from_generator(SZ / 2, 2 * np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_unitarity_and_group_law(self, rng):
        h = random_hermitian(rng, 5)
        u1 = unitary_from_generator(h, 0.37)
        u2 = unitary_from_generator(h, 1.21)
        u12 = unitary_from_generator(h, 0.37 + 1.21)
        assert np.max(np.abs(u1 @ u1.conj().T - np.eye(5))) < 1e-10
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10
