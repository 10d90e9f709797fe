import math

import numpy as np
import pytest

from steerkit.assemblage import assemblage_from_state
from steerkit.experiments import bell_assemblage, ghz_assemblage, qubit_basis_povm, split_dicke_assemblage
from steerkit.linalg import NumericError, ValidationError
from steerkit.metrology import povm_from_basis, variance
from steerkit.sampling import epr_product_check, moment_estimator_validation, sample_outcomes
from steerkit.states import collective_jz, spin_ops, split_dicke_fixed, wigner_rotation_matrix

from conftest import SX, SY, SZ, outer, partial_trace, random_density, random_floored_state, random_hermitian, tensor

PLUS = np.array([1, 1]) / np.sqrt(2)


class TestSampleOutcomes:
    def test_eigenstate_concentrates(self):
        counts = sample_outcomes(np.array([1.0, 0.0]), povm_from_basis(np.eye(2)), 1000, 7)
        assert counts[0] == 1000 and counts[1] == 0

    def test_plus_state_frequencies(self):
        n = 100_000
        counts = sample_outcomes(PLUS, povm_from_basis(np.eye(2)), n, 11)
        # 5 sigma binomial window around 1/2
        sigma = math.sqrt(n * 0.25)
        assert abs(counts[0] - n / 2) < 5 * sigma

    def test_split_twin_fock_x_readout(self):
        n_tot = 4
        state = split_dicke_fixed(n_tot // 2, n_tot // 2, n_tot // 2)
        rho_a = partial_trace(np.outer(state.amplitudes, state.amplitudes.conj()), state.dims, "A")
        basis = np.asarray(wigner_rotation_matrix(n_tot // 2, math.pi / 2)).astype(complex)
        n = 100_000
        counts = sample_outcomes(rho_a, povm_from_basis(basis), n, 23)
        p_ref = 2.0 / (n_tot + 2.0)
        sigma = math.sqrt(n * p_ref * (1 - p_ref))
        for c in counts:
            assert abs(c - n * p_ref) < 5 * sigma

    def test_reproducible(self):
        a = sample_outcomes(PLUS, povm_from_basis(np.eye(2)), 5000, 99)
        b = sample_outcomes(PLUS, povm_from_basis(np.eye(2)), 5000, 99)
        assert np.array_equal(a, b)
        c = sample_outcomes(PLUS, povm_from_basis(np.eye(2)), 5000, 100)
        assert not np.array_equal(a, c)


def plus_state_assemblage():
    """Trivial single-setting assemblage holding the bare qubit |+>."""
    rho = tensor(np.diag([1.0, 0.0]).astype(complex), outer(PLUS))
    return assemblage_from_state(rho, (2, 2), [("sz", qubit_basis_povm("z"))])


class TestMomentEstimator:
    def test_unbiased_at_calibration_point(self):
        asm = plus_state_assemblage()
        run = moment_estimator_validation(asm, SZ / 2, SY, theta_true=0.0, n=4000, reps=100, seed=5)
        stderr = math.sqrt(run.empirical_var / len(run.estimates))
        assert abs(run.estimates.mean()) < 5 * stderr

    def test_qubit_variance_prediction(self):
        # |+>, H = sz/2, M = sy: Var[M_est] = 1, |d<M>/dtheta| = |<sx>| = 1
        asm = plus_state_assemblage()
        n, reps = 10_000, 200
        run = moment_estimator_validation(asm, SZ / 2, SY, theta_true=0.01, n=n, reps=reps, seed=17)
        assert abs(run.predicted_var - 1.0 / n) < 1e-12 / n + 1e-15
        rel_se = math.sqrt(2.0 / (reps - 1))
        assert abs(run.empirical_var - run.predicted_var) < 5 * rel_se * run.predicted_var

    def test_eq4_equals_commutator_form(self):
        # Var[M_est]/(n |d<M>/dtheta|^2) == Var[M_est]/(n |<[H,M]>|^2)
        asm = plus_state_assemblage()
        run = moment_estimator_validation(asm, SZ / 2, SY, theta_true=0.01, n=1000, reps=10, seed=2)
        rho_b = asm.reduced_spectrum().reconstruct()
        comm = SZ / 2 @ SY - SY @ SZ / 2
        comm_mean = abs(np.trace(rho_b @ comm))
        alt = run.var_m_est / (1000 * comm_mean**2)
        assert abs(run.predicted_var - alt) <= 1e-9 * alt

    def test_reproducible_bitwise(self):
        asm = plus_state_assemblage()
        r1 = moment_estimator_validation(asm, SZ / 2, SY, n=500, reps=20, seed=42)
        r2 = moment_estimator_validation(asm, SZ / 2, SY, n=500, reps=20, seed=42)
        assert np.array_equal(r1.estimates, r2.estimates)
        assert r1.empirical_var == r2.empirical_var

    def test_consistency_sweep_converges(self):
        # |empirical_var - predicted_var| shrinks ~1/n through the sweep while
        # staying inside the 5-relative-standard-error window at each n
        asm = plus_state_assemblage()
        reps = 400
        rel_window = 5 * math.sqrt(2.0 / (reps - 1))
        devs = []
        for n in (1000, 10_000, 100_000):
            run = moment_estimator_validation(asm, SZ / 2, SY, theta_true=0.01, n=n, reps=reps, seed=31)
            assert abs(run.empirical_var - run.predicted_var) < rel_window * run.predicted_var
            devs.append(abs(run.empirical_var - run.predicted_var))
        assert devs[0] > devs[1] > devs[2]

    def test_flat_response_errors(self):
        asm = plus_state_assemblage()
        with pytest.raises(NumericError, match="flat"):
            moment_estimator_validation(asm, SZ / 2, SX, n=100, reps=5, seed=1)

    def test_linear_window_guard(self):
        asm = plus_state_assemblage()
        with pytest.raises(ValidationError, match="window"):
            moment_estimator_validation(asm, SZ / 2, SY, theta_true=0.2, n=100, reps=5, seed=1)

    def test_default_setting_minimizes_m_variance(self):
        from steerkit.experiments import cat_assemblage
        from steerkit.states import fock_space

        asm = cat_assemblage(0.5)
        mode = fock_space(asm.d_b)
        run = moment_estimator_validation(asm, mode.x, mode.p, theta_true=0.005, n=2000, reps=50, seed=9)
        # the y basis minimizes the conditional variance of M = p
        assert run.setting == "y"

    def test_h_and_a_fixed_m_diagonalised_once_per_run(self, monkeypatch):
        import steerkit.sampling as module

        calls = []
        eig = module.hermitian_eig
        monkeypatch.setattr(module, "hermitian_eig", lambda op: calls.append(op) or eig(op))
        # Alice's sz setting has two outcomes, each leaving Bob in |+>
        asm = assemblage_from_state(tensor(np.diag([0.6, 0.4]), outer(PLUS)), (2, 2), [("sz", qubit_basis_povm("z"))])
        assert asm.setting("sz").n_outcomes == 2
        moment_estimator_validation(asm, SZ / 2, SY, n=100, reps=5, seed=1)
        assert len(calls) == 2 and sum(np.array_equal(op, SZ / 2) for op in calls) == 1
        calls.clear()
        # per-outcome observables: H once, then each M_a once
        moment_estimator_validation(bell_assemblage(), SZ / 2, [SY, -SY], n=100, reps=5, seed=1, setting="sx")
        assert len(calls) == 3 and sum(np.array_equal(op, SZ / 2) for op in calls) == 1

    def test_adaptive_observables_restore_response(self):
        # split twin Fock: any fixed M has flat response (vanishing
        # polarisation), but outcome-adapted signs calibrate fine
        n_tot = 4
        asm = split_dicke_assemblage(n_tot // 2, n_tot // 2, n_tot // 2)
        ops = spin_ops(n_tot // 2)
        with pytest.raises(NumericError, match="flat"):
            moment_estimator_validation(asm, ops.jz, ops.jx, theta_true=0.0, n=100, reps=5, seed=1, setting="Jx")
        rec = asm.setting("Jx")
        signs = []
        for st in rec.states:
            vec = st.eigenvectors[:, 0]
            mean_jx = float(np.vdot(vec, ops.jx @ vec).real)
            signs.append(1.0 if mean_jx >= 0 else -1.0)
        m_list = [s * ops.jy for s in signs]
        run = moment_estimator_validation(
            asm, ops.jz, m_list, theta_true=0.01, n=5000, reps=100, seed=4, setting="Jx"
        )
        rel = math.sqrt(2.0 / 99)
        assert abs(run.empirical_var - run.predicted_var) < 5 * rel * run.predicted_var


class TestEPRProduct:
    def test_bell_strategy_flags(self):
        # Bob adapts the sign of sigma_y to Alice's sigma_x outcome; the
        # H-inference side is handled by the sigma_z setting (variance zero)
        asm = bell_assemblage()
        check = epr_product_check(
            asm, SZ / 2, [SY, -SY], n=10_000, reps=200, seed=3, theta_setting="sx"
        )
        assert check.var_h_est < 1e-12
        assert abs(check.run.predicted_var * check.run.n_shots - 1.0) < 1e-9
        assert check.product < check.threshold
        assert check.epr_flag

    def test_product_states_never_flag(self, rng):
        flags = []
        for trial in range(20):
            rho_b = random_density(rng, 2)
            h = random_hermitian(rng, 2)
            m = random_hermitian(rng, 2)
            rho_b = (rho_b + rho_b.conj().T) / 2
            comm = h @ m - m @ h
            if abs(np.trace(rho_b @ comm)) < 0.05:  # flat response: resample
                continue
            joint = tensor(np.diag([0.6, 0.4]).astype(complex), rho_b)
            asm = assemblage_from_state(joint, (2, 2), [("sz", qubit_basis_povm("z"))])
            check = epr_product_check(asm, h, m, theta_true=0.0, n=10_000, reps=200, seed=100 + trial)
            flags.append(check.epr_flag)
        assert len(flags) >= 10
        assert not any(flags)


class TestDiagonalOperators:
    """H or M given as its real diagonal draws what np.diag of it draws."""

    def test_diagonal_h_or_m_matches_dense(self):
        asm = plus_state_assemblage()
        for diag_args, dense_args in (
            ((np.array([0.5, -0.5]), SY), (SZ / 2, SY)),
            ((SY / 2, np.array([1.0, -1.0])), (SY / 2, SZ)),
        ):
            run = moment_estimator_validation(asm, *diag_args, n=500, reps=20, seed=4)
            ref = moment_estimator_validation(asm, *dense_args, n=500, reps=20, seed=4)
            assert np.array_equal(run.estimates, ref.estimates)
            assert (run.derivative, run.predicted_var, run.setting) == (ref.derivative, ref.predicted_var, ref.setting)

    def test_ghz_with_collective_jz_flags(self):
        # Bob adapts the sign of X (x) Y to Alice's sigma_x outcome; the sigma_z
        # setting leaves him a J_z eigenstate, so Var[H_est] = 0
        asm, xy = ghz_assemblage(2), tensor(SX, SY)
        check = epr_product_check(asm, collective_jz(2), [xy, -xy], n=10_000, reps=200, seed=3, theta_setting="sx")
        ref = epr_product_check(asm, np.diag(collective_jz(2)), [xy, -xy], n=10_000, reps=200, seed=3, theta_setting="sx")
        assert check.var_h_est < 1e-12 and abs(check.run.derivative - 2.0) < 1e-9
        assert check.epr_flag and np.array_equal(check.run.estimates, ref.run.estimates)

    def test_complex_or_non_finite_diagonal_is_rejected(self):
        asm = plus_state_assemblage()
        for bad, match in ((np.array([0.5, 0.5j]), "not real"), (np.array([0.5, np.nan]), "non-finite")):
            with pytest.raises(ValidationError, match=match):
                moment_estimator_validation(asm, bad, SY, n=100, reps=5, seed=1)
            with pytest.raises(ValidationError, match=match):
                moment_estimator_validation(asm, SZ / 2, bad, n=100, reps=5, seed=1)


class TestSamplingErrors:
    def test_probabilities_must_sum_to_one(self):
        bad_state = np.diag([0.7, 0.2]).astype(complex)  # trace 0.9
        with pytest.raises(ValidationError, match="sum"):
            sample_outcomes(bad_state, povm_from_basis(np.eye(2)), 100, 1)


class TestFloor:
    """Sampling from a floored state draws what its dense reconstruction draws."""

    def test_joint_distribution_matches_dense(self, rng):
        st = random_floored_state(rng, 6, 2, 0.05)
        settings = [("sz", qubit_basis_povm("z")), ("sx", qubit_basis_povm("x"))]
        floored = assemblage_from_state(st, (2, 3), settings)
        dense = assemblage_from_state(st.reconstruct(), (2, 3), settings)
        h, m = random_hermitian(rng, 3), random_hermitian(rng, 3)
        runs = [
            moment_estimator_validation(asm, h / 50, m, theta_true=0.01, n=5000, reps=20, seed=3, setting="sx")
            for asm in (floored, dense)
        ]
        assert np.allclose(runs[0].estimates, runs[1].estimates, rtol=1e-9, atol=0)
        assert abs(runs[0].predicted_var - runs[1].predicted_var) <= 1e-12 * runs[1].predicted_var
        povm = povm_from_basis(np.eye(6))
        assert np.array_equal(sample_outcomes(st, povm, 10_000, 5), sample_outcomes(st.reconstruct(), povm, 10_000, 5))
