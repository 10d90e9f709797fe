import math

import numpy as np
import pytest

from steerkit.assemblage import (
    LHSModel,
    SettingRecord,
    assemblage_from_lhs,
    assemblage_from_pure_state,
    assemblage_from_state,
    conditional_qfi,
    conditional_variance,
    make_assemblage,
    reid_witness,
    steering_witness,
    witness_report,
)
from steerkit.experiments import (
    bell_assemblage,
    cat_assemblage,
    ghz_assemblage,
    ghz_noise_assemblage,
    ghz_noise_closed_forms,
    qubit_basis_povm,
    split_dicke_assemblage,
    split_dicke_rows,
)
from steerkit.linalg import TOL, NumericError, Spectrum, ValidationError, factor_spectrum, stack
from steerkit.metrology import as_state, make_povm, povm_from_basis, qfi, variance
from steerkit.pure import optimal_assemblage, s_avg_pure, s_max_pure
from steerkit.states import (
    BipartitePureState,
    collective_jz,
    fock_space,
    ghz_vector,
    spin_ops,
)

from conftest import (
    I2,
    SX,
    SZ,
    cfi,
    close_settings_assemblage,
    dense_mixture,
    outer,
    random_density,
    random_floored_state,
    random_hermitian,
    random_pure,
    tensor,
)


def random_lhs_model(rng, d_b=None, n_lambda=None, n_settings=None, n_outcomes=None):
    d_b = d_b or int(rng.integers(2, 5))
    n_lambda = n_lambda or int(rng.integers(1, 6))
    n_settings = n_settings or int(rng.integers(1, 4))
    n_outcomes = n_outcomes or int(rng.integers(2, 5))
    w = rng.dirichlet(np.ones(n_lambda))
    sigmas = tuple(random_density(rng, d_b) for _ in range(n_lambda))
    responses = {}
    for s in range(n_settings):
        cols = rng.dirichlet(np.ones(n_outcomes), size=n_lambda).T
        responses[f"X{s}"] = cols
    return LHSModel(weights=w, local_states=sigmas, responses=responses)


class TestConstruction:
    def test_product_state_conditionals_equal_marginal(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = tensor(rho_a, rho_b)
        asm = assemblage_from_state(joint, (2, 3), [("sz", qubit_basis_povm("z")), ("sx", qubit_basis_povm("x"))])
        for rec in asm.settings:
            for st in rec.states:
                assert np.max(np.abs(st.reconstruct() - rho_b)) < 1e-10

    def test_bell_sigma_z_conditionals(self):
        bell = ghz_vector(2, 0.0)
        asm = assemblage_from_state(np.outer(bell, bell.conj()), (2, 2), [("sz", qubit_basis_povm("z"))])
        rec = asm.settings[0]
        assert np.allclose(rec.probabilities, [0.5, 0.5])
        assert np.allclose(rec.states[0].reconstruct(), np.diag([1.0, 0.0]))
        assert np.allclose(rec.states[1].reconstruct(), np.diag([0.0, 1.0]))

    def test_ghz_sigma_x_steers_into_ghz(self):
        n_bob = 3
        phi = 0.8
        asm = ghz_assemblage(n_bob, phi)
        rec = asm.setting("sx")
        targets = [ghz_vector(n_bob, phi), ghz_vector(n_bob, phi + np.pi)]
        assert np.allclose(rec.probabilities, [0.5, 0.5])
        for st, ref in zip(rec.states, targets):
            overlap = abs(np.vdot(st.eigenvectors[:, 0], ref))
            assert abs(overlap - 1.0) < 1e-10

    def test_pure_and_dense_routes_agree(self, rng):
        vec = random_pure(rng, 6)
        state = BipartitePureState(dims=(2, 3), amplitudes=vec)
        povms = [qubit_basis_povm("z"), qubit_basis_povm("y")]
        fast = assemblage_from_pure_state(state, [("z", povms[0]), ("y", povms[1])])
        dense = assemblage_from_state(np.outer(vec, vec.conj()), (2, 3), [("z", povms[0]), ("y", povms[1])])
        h = random_hermitian(rng, 3)
        assert abs(conditional_qfi(fast, h)[0] - conditional_qfi(dense, h)[0]) < 1e-9
        assert abs(conditional_variance(fast, h)[0] - conditional_variance(dense, h)[0]) < 1e-10

    def test_no_signalling_rejected(self):
        a = SettingRecord(
            label="good",
            probabilities=np.array([0.5, 0.5]),
            states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        )
        b = SettingRecord(
            label="bad",
            probabilities=np.array([0.9, 0.1]),
            states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        )
        with pytest.raises(ValidationError) as err:
            make_assemblage([a, b], 2)
        assert str(err.value) == "no-signalling violated: marginal of 'bad' deviates from 'good' by 4.000e-01 (max-abs)"

    def test_bad_probabilities_rejected(self):
        rec = SettingRecord(
            label="x",
            probabilities=np.array([0.5, 0.4]),
            states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        )
        with pytest.raises(ValidationError, match="probabilities"):
            make_assemblage([rec], 2)

    def test_no_settings_rejected(self):
        with pytest.raises(ValidationError, match="at least one setting"):
            assemblage_from_state(np.eye(4) / 4, (2, 2), [])
        with pytest.raises(ValidationError, match="at least one setting"):
            assemblage_from_lhs(LHSModel(weights=np.ones(1), local_states=(I2 / 2,), responses={}))


class TestLHS:
    def test_single_lambda(self, rng):
        sigma = random_density(rng, 3)
        model = LHSModel(
            weights=np.array([1.0]),
            local_states=(sigma,),
            responses={"X0": np.array([[0.3], [0.7]])},
        )
        asm = assemblage_from_lhs(model)
        rec = asm.settings[0]
        assert np.allclose(rec.probabilities, [0.3, 0.7])
        for st in rec.states:
            assert np.max(np.abs(st.reconstruct() - sigma)) < 1e-12

    def test_deterministic_response(self, rng):
        sigmas = tuple(random_density(rng, 2) for _ in range(3))
        model = LHSModel(
            weights=np.full(3, 1 / 3),
            local_states=sigmas,
            responses={"X0": np.eye(3)},
        )
        asm = assemblage_from_lhs(model)
        for st, sigma in zip(asm.settings[0].states, sigmas):
            assert np.max(np.abs(st.reconstruct() - sigma)) < 1e-12

    def test_local_states_of_different_dimensions_rejected(self):
        model = LHSModel(weights=np.array([0.5, 0.5]), local_states=(I2 / 2, np.eye(3) / 3), responses={"X0": np.eye(2)})
        with pytest.raises(ValidationError, match=r"local states differ in dimension: \[2, 3\]"):
            assemblage_from_lhs(model)

    def test_lhs_never_steers(self, rng):
        for _ in range(200):
            model = random_lhs_model(rng)
            asm = assemblage_from_lhs(model)
            h = random_hermitian(rng, asm.d_b)
            report = steering_witness(asm, h)
            assert report.delta <= 1e-9
            assert not report.steering


class TestConditionalQuantities:
    def test_ghz_values(self):
        for n_bob in (1, 2, 4):
            asm = ghz_assemblage(n_bob, 0.3)
            jz = collective_jz(n_bob)
            cv, argmin = conditional_variance(asm, jz)
            cq, argmax = conditional_qfi(asm, jz)
            assert abs(cv) < 1e-12
            assert argmin == "sz"
            assert abs(cq - n_bob**2) < 1e-9 * n_bob**2
            assert argmax == "sx"

    def test_split_twin_fock_values(self):
        n = 12
        asm = split_dicke_assemblage(n // 2, n // 2, n // 2)
        jz = spin_ops(n // 2).jz
        cv, argmin = conditional_variance(asm, jz)
        cq, argmax = conditional_qfi(asm, jz)
        assert abs(cv) < 1e-12
        assert argmin == "Jz"
        assert abs(cq - n * (n + 4) / 12.0) < 1e-9 * cq
        assert argmax == "Jx"

    def test_product_state_collapses(self, rng):
        rho_b = random_density(rng, 2)
        joint = tensor(random_density(rng, 2), rho_b)
        asm = assemblage_from_state(joint, (2, 2), [("sz", qubit_basis_povm("z")), ("sx", qubit_basis_povm("x"))])
        h = random_hermitian(rng, 2)
        report = steering_witness(asm, h)
        assert abs(report.cond_var - variance(rho_b, h)) < 1e-10
        assert abs(report.cond_qfi - qfi(rho_b, h)) < 1e-9
        # all four report quantities collapse pairwise on product states
        assert abs(report.cond_qfi - report.qfi_reduced) < 1e-9
        assert abs(report.cond_var - report.var_reduced) < 1e-10

    def test_tie_breaks_to_first_setting(self, rng):
        # two settings with identical outcome data: exact tie goes to the
        # first label in declaration order
        sigma = random_density(rng, 2)
        model = LHSModel(
            weights=np.array([1.0]),
            local_states=(sigma,),
            responses={"first": np.array([[0.5], [0.5]]), "second": np.array([[0.5], [0.5]])},
        )
        asm = assemblage_from_lhs(model)
        h = random_hermitian(rng, 2)
        assert conditional_variance(asm, h)[1] == "first"
        assert conditional_qfi(asm, h)[1] == "first"


class TestWitness:
    def test_ghz_delta(self):
        asm = ghz_assemblage(4)
        report = steering_witness(asm, collective_jz(4))
        assert abs(report.delta - 4.0) < 1e-9
        assert report.steering

    def test_cat_delta(self):
        asm = cat_assemblage(1.0)
        mode = fock_space(asm.d_b)
        report = steering_witness(asm, mode.x)
        assert abs(report.delta - 2.0) < 1e-7
        assert report.steering

    def test_lhs_delta_nonpositive(self, rng):
        model = random_lhs_model(rng, d_b=2)
        asm = assemblage_from_lhs(model)
        report = steering_witness(asm, random_hermitian(rng, 2))
        assert report.delta <= 1e-9


class TestReid:
    def test_equal_operators_never_violate(self, rng):
        asm = bell_assemblage()
        h = random_hermitian(rng, 2)
        lhs, rhs = reid_witness(asm, h, h)
        assert rhs == 0.0
        assert lhs >= -1e-12

    def test_cat_reid_values(self):
        alpha = 0.5
        asm = cat_assemblage(alpha)
        mode = fock_space(asm.d_b)
        lhs, rhs = reid_witness(asm, mode.x, mode.p)
        cv_p = 0.5 - 2 * alpha**2 * math.exp(-4 * alpha**2)
        assert abs(lhs - 0.5 * cv_p) < 1e-7
        assert abs(rhs - 0.25) < 1e-9
        assert lhs < rhs  # Reid paradox flagged

    def test_split_twin_fock_reid_inconclusive(self):
        n = 8
        asm = split_dicke_assemblage(n // 2, n // 2, n // 2)
        ops = spin_ops(n // 2)
        lhs, rhs = reid_witness(asm, ops.jz, ops.jx)
        report = steering_witness(asm, ops.jz)
        assert rhs < 1e-18  # vanishing polarisation kills the commutator bound
        assert not lhs < rhs
        assert report.delta > 1e-2  # while the metrological witness fires

    def test_reduced_spectrum_built_once(self, monkeypatch):
        import steerkit.assemblage as module

        asm = cat_assemblage(0.5)
        mode = fock_space(asm.d_b)
        calls = []
        monkeypatch.setattr(module, "factor_spectrum", lambda *args: calls.append(1) or factor_spectrum(*args))
        reid_witness(asm, mode.x, mode.p)
        assert len(calls) == 1


def joint_cfi(assemblage, setting_label, povm_b, h):
    """Fixed-settings Fisher information sum_a p(a|X) F[povm_B, rho_a, H], from the dense ``cfi``."""
    rec = assemblage.setting(setting_label)
    return sum(p * cfi(povm_b, st.reconstruct(), h) for p, st in zip(rec.probabilities, rec.states))


class TestJointCFI:
    """The conditional QFI bounds the Fisher information of every fixed pair of measurements."""

    def test_eigenbasis_of_h_blind(self):
        asm = bell_assemblage()
        povm_b = povm_from_basis(np.eye(2))
        assert joint_cfi(asm, "sz", povm_b, SZ / 2) == 0.0

    def test_ghz2_parity_basis_reaches_qfi(self):
        n_bob = 2
        asm = ghz_assemblage(n_bob, 0.0)
        jz = collective_jz(n_bob)
        # y-parity basis: (|00> +- i|11>)/sqrt2 and (|01> +- i|10>)/sqrt2
        b = np.zeros((4, 4), dtype=complex)
        b[:, 0] = [1 / np.sqrt(2), 0, 0, 1j / np.sqrt(2)]
        b[:, 1] = [1 / np.sqrt(2), 0, 0, -1j / np.sqrt(2)]
        b[:, 2] = [0, 1 / np.sqrt(2), 1j / np.sqrt(2), 0]
        b[:, 3] = [0, 1 / np.sqrt(2), -1j / np.sqrt(2), 0]
        val = joint_cfi(asm, "sx", povm_from_basis(b), jz)
        cq, _ = conditional_qfi(asm, jz)
        assert abs(val - n_bob**2) < 1e-6 * n_bob**2
        assert val <= cq + 1e-9

    def test_hierarchy_split_twin_fock(self):
        n = 8
        asm = split_dicke_assemblage(n // 2, n // 2, n // 2)
        ops = spin_ops(n // 2)
        basis = np.asarray(
            __import__("steerkit.states", fromlist=["w"]).wigner_rotation_matrix(n // 2, math.pi / 2)
        ).astype(complex)
        val = joint_cfi(asm, "Jx", povm_from_basis(basis), ops.jz)
        cq, _ = conditional_qfi(asm, ops.jz)
        assert val <= cq + 1e-9
        assert val <= n * (n + 4) / 12.0 + 1e-9


class TestSandwichGuard:
    """Every report passes F_Q[rho_B] <= cond_qfi <= 4 Var[rho_B] and F_Q[rho_B] <= 4 cond_var <= 4 Var[rho_B]
    within TOL.sandwich * max(1, |value|), or ``steering_witness`` raises."""

    def test_forged_violation_raises(self, monkeypatch):
        import steerkit.assemblage as module

        true_qfi = module.qfi
        # doubling every QFI lifts cond_qfi = 9 of the 3-qubit GHZ state above 4 Var[rho_B] = 9
        monkeypatch.setattr(module, "qfi", lambda st, h: 2.0 * true_qfi(st, h))
        with pytest.raises(NumericError, match=r"cond_qfi = .* > 4 Var\[rho_B\]"):
            steering_witness(ghz_assemblage(3), collective_jz(3))

    @pytest.mark.parametrize("excess,passes", [(1e-12, True), (1e-8, False)])
    def test_tolerance_is_relative(self, monkeypatch, excess, passes):
        import steerkit.assemblage as module

        # cond_qfi = qfi_reduced = 4e6 (1 + excess) against 4 Var = 4 cond_var = 4e6
        monkeypatch.setattr(module, "qfi", lambda st, h: 4e6 * (1.0 + excess))
        monkeypatch.setattr(module, "variance", lambda st, h: 1e6)
        if passes:
            report = steering_witness(bell_assemblage(), SZ)
            assert report.cond_qfi - 4.0 * report.var_reduced > 1e-9  # over an absolute 1e-9
        else:
            with pytest.raises(NumericError, match="sandwich"):
                steering_witness(bell_assemblage(), SZ)

    @pytest.mark.parametrize("excess,passes", [(1e-12, True), (1e-8, False)])
    def test_constructor_tolerance_is_relative(self, excess, passes):
        # cond_qfi = 4e6 (1 + excess) against 4 Var[rho_B] = 4e6; the other three bounds hold
        args = (4e6 * (1.0 + excess), "x", 0.0, "z", (0.0, 1e6))
        if passes:
            report = witness_report(*args)
            assert (report.delta, report.steering) == (1e6 * (1.0 + excess), True)
        else:
            with pytest.raises(NumericError, match=r"cond_qfi = .* > 4 Var\[rho_B\]"):
                witness_report(*args)

    @pytest.mark.parametrize(
        "cq,cv,reduced,message",
        [
            (1.0, 0.5, (2.0, 1.0), r"F_Q\[rho_B\] = 2.0 > cond_qfi = 1.0"),
            (5.0, 0.5, (1.0, 1.0), r"cond_qfi = 5.0 > 4 Var\[rho_B\] = 4.0"),
            (4.0, 0.25, (2.0, 1.0), r"F_Q\[rho_B\] = 2.0 > 4 cond_var = 1.0"),
            (4.0, 1.5, (1.0, 1.0), r"4 cond_var = 6.0 > 4 Var\[rho_B\] = 4.0"),
            (float("nan"), 0.5, (1.0, 1.0), "F_Q.* > cond_qfi = nan"),
        ],
    )
    def test_each_bound_is_checked(self, cq, cv, reduced, message):
        with pytest.raises(NumericError, match=message):
            witness_report(cq, "x", cv, "z", reduced)

    def test_failing_bound_is_rechecked_lazily_against_its_own_setting(self):
        asked = []

        def marginal(label):
            asked.append(label)
            return {"x": (0.0, 1.25), "z": (0.0, 0.75)}[label]

        witness_report(4.0, "x", 0.5, "z", (0.0, 1.0), marginal)
        assert asked == []  # every bound holds against the first marginal
        report = witness_report(5.0, "x", 0.5, "z", (0.0, 1.0), marginal)
        assert asked == ["x"] and report.var_reduced == 1.0  # the report keeps the first marginal
        with pytest.raises(NumericError, match="cond_qfi = 6.0 > 4 Var"):
            witness_report(6.0, "x", 0.5, "z", (0.0, 1.0), marginal)

    @pytest.mark.parametrize("angles", [(1.0, 1.0 + 1e-9), (1.0 + 1e-9, 1.0)])
    def test_settings_that_differ_within_no_signalling_pass(self, angles):
        # pure qubits at Bloch angles 1 and 1 + 1e-9: marginals 4.2e-10 apart, which tips
        # cond_qfi <= 4 Var[rho_B] (first order) or F_Q[rho_B] <= 4 cond_var (mirrored)
        # against the first setting's marginal, but neither against the argmax's or argmin's own
        asm = close_settings_assemblage(angles)
        report = steering_witness(asm, SZ)
        assert (report.argmax_setting, report.argmin_setting) == (("s1", "s0") if angles[0] < angles[1] else ("s0", "s1"))
        assert abs(report.cond_qfi - 4.0 * math.sin(1.0) ** 2) < 1e-8
        assert not report.steering

    def test_twin_fock_equality_passes(self):
        # the twin-Fock state holds cond_qfi = 4 Var[rho_B] with equality, n (n + 4)/12 on both sides
        rows = {row[0]: row[4] for row in split_dicke_rows(1000, 500)[1]}
        assert abs(rows["summary:cond_qfi"] - 4.0 * rows["summary:var_reduced"]) <= 1e-9 * rows["summary:cond_qfi"]


class TestBoundsAndStructure:
    def test_bounds_hold_on_random_assemblages(self, rng):
        for _ in range(50):
            model = random_lhs_model(rng)
            asm = assemblage_from_lhs(model)
            h = random_hermitian(rng, asm.d_b)
            steering_witness(asm, h)  # raises if a sandwich bound fails

    def test_pure_state_saturation_with_optimal_settings(self, rng):
        vec = random_pure(rng, 9)
        state = BipartitePureState(dims=(3, 3), amplitudes=vec)
        h = random_hermitian(rng, 3)
        asm = optimal_assemblage(state, h)
        report = steering_witness(asm, h)
        assert abs(report.cond_qfi - 4.0 * report.var_reduced) < 1e-8 * max(report.cond_qfi, 1.0)
        assert abs(4.0 * report.cond_var - report.qfi_reduced) < 1e-8 * max(report.qfi_reduced, 1.0)

    def test_convexity_under_mixing(self, rng):
        for _ in range(20):
            d_b = int(rng.integers(2, 4))
            n_lambda = int(rng.integers(1, 4))
            n_out = int(rng.integers(2, 4))
            m1 = random_lhs_model(rng, d_b=d_b, n_lambda=n_lambda, n_settings=2, n_outcomes=n_out)
            m2 = random_lhs_model(rng, d_b=d_b, n_lambda=n_lambda, n_settings=2, n_outcomes=n_out)
            a1 = assemblage_from_lhs(m1)
            a2 = assemblage_from_lhs(m2)
            a2 = make_assemblage(
                [SettingRecord(label=l, probabilities=r.probabilities, states=r.states)
                 for l, r in zip(a1.labels, a2.settings)],
                d_b,
            )
            h = random_hermitian(rng, d_b)
            for t in (0.0, 0.25, 0.5, 0.8, 1.0):
                mixed = dense_mixture(a1, a2, t)
                cq_mix, _ = conditional_qfi(mixed, h)
                cv_mix, _ = conditional_variance(mixed, h)
                cq_bound = t * conditional_qfi(a1, h)[0] + (1 - t) * conditional_qfi(a2, h)[0]
                cv_bound = t * conditional_variance(a1, h)[0] + (1 - t) * conditional_variance(a2, h)[0]
                assert cq_mix <= cq_bound + 1e-9
                assert cv_mix >= cv_bound - 1e-9

    def test_fine_graining_monotone(self, rng):
        # splitting an effect into a positive sum cannot decrease cond_qfi or
        # increase cond_var
        vec = random_pure(rng, 4)
        state_rho = np.outer(vec, vec.conj())
        coarse = make_povm([I2 / 2 + SX / 4, I2 / 2 - SX / 4])
        h = random_hermitian(rng, 2)

        def split(eff):
            vals, vecs = np.linalg.eigh(eff)
            return [max(v, 0) * outer(vecs[:, i]) for i, v in enumerate(vals)]

        fine_effects = [piece for k in coarse.factors for piece in split(k @ k.conj().T)]
        fine = make_povm(fine_effects)
        asm_coarse = assemblage_from_state(state_rho, (2, 2), [("coarse", coarse)])
        asm_fine = assemblage_from_state(state_rho, (2, 2), [("fine", fine)])
        assert conditional_qfi(asm_fine, h)[0] >= conditional_qfi(asm_coarse, h)[0] - 1e-9
        assert conditional_variance(asm_fine, h)[0] <= conditional_variance(asm_coarse, h)[0] + 1e-9

    def test_varhierarchy_every_setting_upper_bounds(self, rng):
        asm = cat_assemblage(0.7)
        mode = fock_space(asm.d_b)
        cv, _ = conditional_variance(asm, mode.x)
        from steerkit.assemblage import setting_average_variance

        for rec in asm.settings:
            assert cv <= setting_average_variance(rec, mode.x) + 1e-12


class TestTinyProbabilityOutcomes:
    def test_small_outcome_probability_not_rejected(self, rng):
        # roundoff in a conditional block must be judged at the block's own
        # scale; dividing by p ~ 1e-8 first would amplify it past the PSD
        # tolerance and spuriously reject a valid input
        eps = 1e-8
        rho_a = np.diag([1 - eps, eps]).astype(complex)
        rho_b = random_density(rng, 16)
        joint = tensor(rho_a, rho_b)
        asm = assemblage_from_state(joint, (2, 16), [("sz", qubit_basis_povm("z"))])
        assert np.min(asm.settings[0].probabilities) == pytest.approx(eps, rel=1e-6)
        h = random_hermitian(rng, 16)
        report = steering_witness(asm, h)
        assert report.delta <= 1e-9  # product state never steers


NAN = float("nan")


def nan_lhs_model(weights=(0.5, 0.5), response=((1.0, 0.0), (0.0, 1.0))):
    """Two hidden states |0>, |1> read out by setting "X"; the caller puts a NaN in the weights or the response."""
    return LHSModel(weights=np.array(weights), local_states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                    responses={"X": np.array(response)})


class TestErrorContracts:
    def test_empty_assemblage_rejected(self, rng):
        from steerkit.assemblage import Assemblage

        empty = Assemblage(d_b=2, settings=())
        with pytest.raises(ValidationError, match="no settings"):
            conditional_variance(empty, SZ)
        with pytest.raises(ValidationError, match="no settings"):
            conditional_qfi(empty, SZ)

    def test_dim_mismatch_rejected(self, rng):
        asm = bell_assemblage()
        with pytest.raises(ValidationError):
            conditional_qfi(asm, np.eye(3))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: povm_from_basis(np.array([[NAN, 0.0], [0.0, 1.0]])), "POVM effects"),
            (lambda: as_state(Spectrum(np.array([0.5, NAN]), np.eye(2)), name="rho"), "rho eigenvalues"),
            (lambda: as_state(Spectrum(np.ones(1), np.eye(2)[:, :1], NAN), name="rho"), "rho has negative floor"),
            (lambda: s_avg_pure([NAN, 0.5, 0.5]), "not a probability vector"),
            (lambda: s_max_pure([NAN, 0.5, 0.5]), "not a probability vector"),
            (lambda: assemblage_from_lhs(nan_lhs_model(weights=[NAN, 0.5])), "weights"),
            (lambda: assemblage_from_lhs(nan_lhs_model(response=[[NAN, 0.0], [0.0, 1.0]])), "response for 'X'"),
            (lambda: make_assemblage([SettingRecord("a", [1.0], (Spectrum(np.ones(1), np.array([[NAN], [0.0]])),)),
                                      SettingRecord("b", [1.0], (np.array([1.0, 0.0]),))], 2),
             "conditional state a/0 eigenvector 0 is not a finite unit vector"),
        ],
        ids=["povm_from_basis", "as_state_eigenvalue", "as_state_floor", "s_avg_pure", "s_max_pure",
             "lhs_weight", "lhs_response", "make_assemblage_eigenvector"],
    )
    def test_nan_input_is_rejected_by_name(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


def product_assemblage(bits: str):
    """|b_A b_B> read out by Alice along z, as a one-setting assemblage labelled "z"."""
    amps = np.zeros(4, dtype=complex)
    amps[int(bits, 2)] = 1.0
    state = BipartitePureState(dims=(2, 2), amplitudes=amps)
    return assemblage_from_pure_state(state, [("z", qubit_basis_povm("z"))])


class TestOutcomeIdentity:
    def test_pure_state_keeps_surviving_label(self):
        rec = product_assemblage("00").setting("z")
        assert rec.outcomes == ("z+",)
        assert np.allclose(rec.probabilities, [1.0])

    def test_mixing_pairs_outcomes_by_label(self):
        # |11> leaves only z-, |00> only z+; mixing must not add z- of one to z+ of the other
        mixed = dense_mixture(product_assemblage("11"), product_assemblage("00"), 0.5)
        assert conditional_variance(mixed, SZ / 2)[0] == 0.0  # z+ -> |0>, z- -> |1>: no spread left
        rec = mixed.setting("z")
        assert sorted(rec.outcomes) == ["z+", "z-"]
        by_label = {lab: (p, rec.states[i].reconstruct()) for i, (lab, p) in enumerate(zip(rec.outcomes, rec.probabilities))}
        assert abs(by_label["z+"][0] - 0.5) < 1e-15 and abs(by_label["z-"][0] - 0.5) < 1e-15
        assert np.allclose(by_label["z+"][1], np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(by_label["z-"][1], np.diag([0.0, 1.0]), atol=1e-15)

    def test_mixing_different_outcome_counts(self):
        bell = assemblage_from_pure_state(
            BipartitePureState(dims=(2, 2), amplitudes=ghz_vector(2, 0.0)), [("z", qubit_basis_povm("z"))]
        )
        mixed = dense_mixture(product_assemblage("00"), bell, 0.5)
        rec = mixed.setting("z")
        assert rec.outcomes == ("z+", "z-")
        assert np.allclose(rec.probabilities, [0.75, 0.25], atol=1e-15)
        assert np.allclose(rec.states[0].reconstruct(), np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(rec.states[1].reconstruct(), np.diag([0.0, 1.0]), atol=1e-15)

    def test_lhs_dropped_outcome_keeps_positions(self, rng):
        model = LHSModel(
            weights=np.array([1.0]),
            local_states=(random_density(rng, 2),),
            responses={"X0": np.array([[0.5], [0.0], [0.5]])},
        )
        assert assemblage_from_lhs(model).setting("X0").outcomes == ("0", "2")

    def test_missing_labels_filled_by_position(self):
        rec = SettingRecord(
            label="x", probabilities=np.array([0.5, 0.5]), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        assert make_assemblage([rec], 2).settings[0].outcomes == ("0", "1")

    @pytest.mark.parametrize("outcomes", [("a", "a"), ("a",), ("a", "b", "c")])
    def test_bad_outcome_labels_rejected(self, outcomes):
        rec = SettingRecord(
            label="x",
            probabilities=np.array([0.5, 0.5]),
            states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
            outcomes=outcomes,
        )
        with pytest.raises(ValidationError, match="distinct label per outcome"):
            make_assemblage([rec], 2)

    def test_repeated_setting_label_rejected(self):
        # a report's argmax_setting and argmin_setting could not say which of two "sz" settings won
        z = bell_assemblage().settings[0]
        with pytest.raises(ValidationError, match=r"one distinct label per setting, got \('sz', 'sz'\)"):
            make_assemblage([z, z], 2)

    @pytest.mark.parametrize("probabilities", [[np.nan, 1.0], [0.5, np.nan]])
    def test_nan_probability_rejected(self, probabilities):
        rec = SettingRecord("x", np.array(probabilities), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        with pytest.raises(ValidationError, match="negative or NaN probability"):
            make_assemblage([rec], 2)


class TestSpectra:
    """Conditional and reduced states are diagonalised once, or not at all when pure."""

    @pytest.mark.parametrize("case", ["pure", "mixed"])
    def test_reduced_spectrum_matches_eigh(self, rng, case):
        if case == "pure":  # F has 2 columns < d_B = 5: thin SVD
            state = BipartitePureState(dims=(2, 5), amplitudes=random_pure(rng, 10))
            asm = assemblage_from_pure_state(state, [("z", qubit_basis_povm("z")), ("x", qubit_basis_povm("x"))])
        else:  # F has 2 * 3 columns >= d_B = 3: eigh of F F^dag
            rho = 0.7 * outer(random_pure(rng, 6)) + 0.3 * random_density(rng, 6)
            asm = assemblage_from_state(rho, (2, 3), [("z", qubit_basis_povm("z"))])
        spec = asm.reduced_spectrum()
        f, mu = asm.settings[0].factor()
        dense = f @ f.conj().T + mu * np.eye(asm.d_b)
        padded = np.concatenate([spec.eigenvalues, np.zeros(asm.d_b - spec.eigenvalues.size)])
        assert np.allclose(np.sort(padded), np.linalg.eigvalsh(dense), atol=1e-14)
        assert np.max(np.abs(spec.reconstruct() - dense)) < 1e-14
        h = random_hermitian(rng, asm.d_b)
        assert abs(qfi(spec, h) - qfi(dense, h)) < 1e-12
        assert abs(variance(spec, h) - variance(dense, h)) < 1e-12

    def test_each_mixed_block_diagonalised_once(self, rng, monkeypatch):
        # each setting's outcomes are conditioned as one stack: one factor_spectrum call per setting
        # (per effect rank), holding every outcome above the probability floor
        import steerkit.assemblage as module

        shapes = []
        monkeypatch.setattr(module, "factor_spectrum", lambda g, mu=0.0: shapes.append(g.shape) or factor_spectrum(g, mu))
        rho = random_floored_state(rng, 6, 3, 0.0)  # rank 3 over 2 x 3
        unsharp = make_povm([np.diag([0.5, 0.2]), np.diag([0.5, 0.0]), np.diag([0.0, 0.8])], labels=["a", "b", "c"])
        asm = assemblage_from_state(rho, (2, 3), [("z", qubit_basis_povm("z")), ("x", qubit_basis_povm("x")), ("u", unsharp)])
        # z and x: 2 outcomes of K^dag F, 3 x 3 each (k_a = 1, r = 3); u: effect ranks 2, 1, 1, one stack per rank
        assert shapes == [(2, 3, 3), (2, 3, 3), (2, 3, 3), (1, 3, 6)]
        assert asm.setting("u").outcomes == ("a", "b", "c")

    def test_functionals_called_once_per_setting(self, monkeypatch):
        import steerkit.assemblage as module

        calls = []
        for name in ("qfi", "variance"):
            true = getattr(module, name)
            monkeypatch.setattr(module, name, lambda st, h, true=true, name=name: calls.append(name) or true(st, h))
        asm = split_dicke_assemblage(4, 4, 4)
        steering_witness(asm, spin_ops(4).jz.diagonal().real)
        # one stacked call per setting (Jz, Jx) and one on Bob's reduced state, for each functional
        assert sorted(calls) == ["qfi"] * 3 + ["variance"] * 3

    def test_pure_ghz_witness_never_diagonalises_bob(self, monkeypatch):
        def small_only(fn):
            def guarded(a, *args, **kwargs):
                if np.shape(a)[-1] > 2:
                    raise AssertionError(f"{fn.__name__} called on a {np.shape(a)} matrix")
                return fn(a, *args, **kwargs)

            return guarded

        monkeypatch.setattr(np.linalg, "eigh", small_only(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", small_only(np.linalg.eigvalsh))
        report = steering_witness(ghz_assemblage(11), collective_jz(11))
        assert abs(report.cond_qfi - 121.0) < 1e-9 and abs(report.cond_var) < 1e-12
        assert abs(report.var_reduced - 121.0 / 4.0) < 1e-9 and abs(report.qfi_reduced) < 1e-9

    def test_witness_validates_h_once(self, monkeypatch):
        import steerkit.assemblage as module

        names = []
        check = module.require_hermitian
        monkeypatch.setattr(module, "require_hermitian", lambda m, **kw: names.append(kw.get("name")) or check(m, **kw))
        steering_witness(ghz_assemblage(3), collective_jz(3))
        assert names == ["H"]

    def test_pure_and_noisy_ghz_share_setting_labels(self):
        # 0.5 |GHZ><GHZ| + 0.5 (0.5 |GHZ><GHZ| + 0.5 I/d) is the p = 0.75 noisy GHZ state
        mixed = dense_mixture(ghz_assemblage(2), ghz_noise_assemblage(2, 0.0, 0.5), 0.5)
        assert mixed.labels == ("sz", "sx")
        f_ref, v_ref = ghz_noise_closed_forms(2, 0.75)
        assert abs(conditional_qfi(mixed, collective_jz(2))[0] - f_ref) < 1e-12
        assert abs(conditional_variance(mixed, collective_jz(2))[0] - v_ref) < 1e-12


class TestFloorConditioning:
    """A floored rho_AB is conditioned through its factor, with the floor carried along in closed form."""

    SETTINGS = {
        "projective": [("z", qubit_basis_povm("z")), ("x", qubit_basis_povm("x")), ("y", qubit_basis_povm("y"))],
        # unsharp sigma_z and sigma_x readouts: rank-2 effects (1 +/- 0.6 sigma)/2
        "unsharp": [
            ("z", make_povm([(I2 + 0.6 * SZ) / 2, (I2 - 0.6 * SZ) / 2], labels=["z+", "z-"])),
            ("x", make_povm([(I2 + 0.6 * SX) / 2, (I2 - 0.6 * SX) / 2], labels=["x+", "x-"])),
        ],
    }

    def test_outcome_below_the_probability_floor_is_never_diagonalised(self, monkeypatch):
        import steerkit.assemblage as module

        shapes = []
        monkeypatch.setattr(module, "factor_spectrum", lambda g, mu=0.0: shapes.append(g.shape) or factor_spectrum(g, mu))
        product = BipartitePureState(dims=(2, 2), amplitudes=np.array([1.0, 0.0, 0.0, 0.0]))  # |00>: z- has p = 0
        asm = assemblage_from_pure_state(product, [("z", qubit_basis_povm("z"))])
        assert asm.setting("z").outcomes == ("z+",)
        assert shapes == [(1, 2, 1)]  # one stacked SVD, of the one outcome left

    @pytest.mark.parametrize("kind", sorted(SETTINGS))
    def test_floored_state_matches_dense(self, rng, kind):
        for d_b, r, floor in ((2, 1, 1e-3), (3, 2, 1e-3), (3, 1, "min"), (4, 3, 0.02), (3, 2, 0.0)):
            st = random_floored_state(rng, 2 * d_b, r, floor)
            got = assemblage_from_state(st, (2, d_b), self.SETTINGS[kind])
            ref = assemblage_from_state(st.reconstruct(), (2, d_b), self.SETTINGS[kind])
            assert got.labels == ref.labels
            for rec, rec_ref in zip(got.settings, ref.settings):
                assert rec.outcomes == rec_ref.outcomes
                assert np.max(np.abs(rec.probabilities - rec_ref.probabilities)) < 1e-12
                for i in range(rec.n_outcomes):
                    assert np.max(np.abs(rec.states[i].reconstruct() - rec_ref.states[i].reconstruct())) < 1e-12
            assert np.max(np.abs(got.reduced_spectrum().reconstruct() - ref.reduced_spectrum().reconstruct())) < 1e-12

    def test_noisy_ghz_witness_never_diagonalises_large_matrices(self, monkeypatch):
        def small_only(fn):
            def guarded(a, *args, **kwargs):
                if np.shape(a)[-1] > 2:
                    raise AssertionError(f"{fn.__name__} called on a {np.shape(a)} matrix")
                return fn(a, *args, **kwargs)

            return guarded

        monkeypatch.setattr(np.linalg, "eigh", small_only(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", small_only(np.linalg.eigvalsh))
        report = steering_witness(ghz_noise_assemblage(8, 0.0, 0.5), collective_jz(8))
        f_ref, v_ref = ghz_noise_closed_forms(8, 0.5)
        assert abs(report.cond_qfi - f_ref) < 1e-12 * f_ref and abs(report.cond_var - v_ref) < 1e-12
        assert abs(report.var_reduced - (0.5 * 64 + 0.5 * 8) / 4) < 1e-12 and abs(report.qfi_reduced) < 1e-12


class TestNoSignallingCheck:
    """The check compares F F^dag + floor I entry by entry, one block of rows at a time."""

    def test_deviation_past_the_first_row_block(self):
        # d_B = 300 splits the comparison into two blocks of rows; the largest deviation sits in the last row
        d = 300
        last = np.zeros((d, 1), dtype=complex)
        last[-1] = 1.0
        mixed = Spectrum(np.zeros(0), np.zeros((d, 0), dtype=complex), 1.0 / d)
        tilted = Spectrum(np.array([1.0 / d + 0.01]), last, (1.0 - 1.0 / d - 0.01) / (d - 1))
        a = SettingRecord("a", np.array([1.0]), (mixed,))
        with pytest.raises(ValidationError) as err:
            make_assemblage([a, SettingRecord("b", np.array([1.0]), (tilted,))], d)
        assert str(err.value) == "no-signalling violated: marginal of 'b' deviates from 'a' by 1.000e-02 (max-abs)"
        assert make_assemblage([a, SettingRecord("a2", np.array([1.0]), (mixed,))], d).labels == ("a", "a2")

    @staticmethod
    def record(label, *states):
        return SettingRecord(label, np.full(len(states), 1.0 / len(states)), stack(states))

    @staticmethod
    def dense_deviation(rec0, rec1):
        """The blockwise check's quantity, max |D_ij|, from the dense marginals."""
        marginal = [sum(p * st.reconstruct() for p, st in zip(rec.probabilities, rec.states)) for rec in (rec0, rec1)]
        return float(np.max(np.abs(marginal[1] - marginal[0])))

    @staticmethod
    def blockwise_forbidden(monkeypatch):
        import steerkit.assemblage as module

        def forbidden(*args):
            raise AssertionError("the QR check should have decided")

        monkeypatch.setattr(module, "max_abs_by_rows", forbidden)

    @staticmethod
    def count_blockwise(monkeypatch):
        import steerkit.assemblage as module

        calls = []
        blockwise = module.max_abs_by_rows
        monkeypatch.setattr(module, "max_abs_by_rows", lambda *args: calls.append(1) or blockwise(*args))
        return calls

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_single_entry_deviation_at_the_tolerance(self, monkeypatch, side):
        from steerkit.assemblage import _marginal_deviations

        d, tol = 8, TOL.no_signal
        eps = tol * (1.0 - 1e-6 if side == "below" else 1.0 + 1e-6)
        mixed = Spectrum(np.zeros(0), np.zeros((d, 0), dtype=complex), 1.0 / d)
        tilted = Spectrum(np.array([1.0 / d + eps]), np.eye(d, 1, dtype=complex), 1.0 / d)  # D = eps |0><0|
        rec0, rec1 = self.record("a", mixed), self.record("b", tilted)
        ref = self.dense_deviation(rec0, rec1)
        if side == "below":
            self.blockwise_forbidden(monkeypatch)
        [dev] = _marginal_deviations([rec0, rec1], d)
        assert (dev > tol) == (ref > tol) == (side == "above")
        assert abs(dev - eps) < 1e-6 * eps

    def test_spread_deviation_falls_back_and_accepts(self, monkeypatch):
        # D = eps diag(1 x 16, -1 x 16): ||D||_F = eps sqrt(32) > tol, but max |D_ij| = eps < tol
        d, eps = 32, 0.5 * TOL.no_signal
        mixed = Spectrum(np.zeros(0), np.zeros((d, 0), dtype=complex), 1.0 / d)
        spread = Spectrum(np.full(16, 1.0 / d + eps), np.eye(d, 16, dtype=complex), 1.0 / d - eps)
        rec0, rec1 = self.record("a", mixed), self.record("b", spread)
        assert abs(self.dense_deviation(rec0, rec1) - eps) < 1e-6 * eps
        calls = self.count_blockwise(monkeypatch)
        assert make_assemblage([rec0, rec1], d).labels == ("a", "b")
        assert calls == [1]

    @pytest.mark.parametrize("scale", [0.2, 0.9, 1.1])
    def test_floor_only_deviation(self, rng, monkeypatch, scale):
        # the same columns with every eigenvalue and the floor raised by delta: D = delta I,
        # ||D||_F = delta sqrt(5): the QR accepts at 0.2 tol, the blockwise check at 0.9, and rejects at 1.1
        from steerkit.assemblage import _marginal_deviations

        d, tol = 5, TOL.no_signal
        delta = scale * tol
        base = random_floored_state(rng, d, 2, 0.1)
        raised = Spectrum(base.eigenvalues + delta, base.eigenvectors, base.floor + delta)
        rec0, rec1 = self.record("a", base), self.record("b", raised)
        calls = self.count_blockwise(monkeypatch)
        [dev] = _marginal_deviations([rec0, rec1], d)
        assert (dev > tol) == (self.dense_deviation(rec0, rec1) > tol) == (scale > 1.0)
        if scale < 0.4:
            assert calls == [] and abs(dev - delta * math.sqrt(d)) < 1e-5 * dev
        else:
            assert calls == [1] and abs(dev - delta) < 1e-5 * delta

    def test_at_least_d_b_columns_go_straight_to_the_blockwise_check(self, rng, monkeypatch):
        import steerkit.assemblage as module
        from steerkit.assemblage import _marginal_deviations

        def forbidden(*args):
            raise AssertionError("k >= d_B must not take the QR")

        monkeypatch.setattr(module, "qr_r_by_rows", forbidden)
        rho = random_density(rng, 3)
        for shift in (0.0, 1e-3):
            other = rho + shift * np.diag([1.0, -1.0, 0.0])
            # two full-rank outcomes per setting: k = 6 + 6 columns > d_B = 3
            rec0 = self.record("a", as_state(rho), as_state(rho))
            rec1 = self.record("b", as_state(other), as_state(other))
            [dev] = _marginal_deviations([rec0, rec1], 3)
            assert abs(dev - self.dense_deviation(rec0, rec1)) < 1e-14
            assert (dev > TOL.no_signal) == (shift > 0)
        # k = 1 + 2 columns = d_B = 3
        rec0, rec1 = self.record("a", as_state(random_pure(rng, 3))), self.record("b", random_floored_state(rng, 3, 2, 0.0))
        assert abs(next(_marginal_deviations([rec0, rec1], 3)) - self.dense_deviation(rec0, rec1)) < 1e-14

    def test_rejected_deviation_is_reported_as_its_max_abs(self):
        # D = eps diag(1, -1, 0, ...): max |D_ij| = eps = 1.2 tol is reported, not ||D||_F = 1.7 tol
        from steerkit.assemblage import _marginal_deviations

        d, eps = 6, 1.2 * TOL.no_signal
        cols = np.eye(d, 2, dtype=complex)
        rec0 = self.record("a", Spectrum(np.array([0.3, 0.3]), cols, 0.1))
        rec1 = self.record("b", Spectrum(np.array([0.3 + eps, 0.3 - eps]), cols, 0.1))
        [dev] = _marginal_deviations([rec0, rec1], d)
        assert abs(dev - eps) < 1e-6 * eps and abs(self.dense_deviation(rec0, rec1) - eps) < 1e-6 * eps


class TestDiagonalGenerators:
    """A diagonal generator passed as its real diagonal gives what np.diag of it gives, to 1e-12 relative."""

    SETTINGS = [("z", qubit_basis_povm("z")), ("x", qubit_basis_povm("x"))]

    def cases(self, rng):
        """(assemblage, diagonal): pure and noisy GHZ with J_z, a floored rank-3 and a full-rank rho_AB with a random diagonal."""
        yield ghz_assemblage(4, 0.3), collective_jz(4)
        yield ghz_noise_assemblage(4, 0.0, 0.6), collective_jz(4)
        yield assemblage_from_state(random_floored_state(rng, 8, 3, 0.02), (2, 4), self.SETTINGS), rng.standard_normal(4)
        yield assemblage_from_state(random_density(rng, 8), (2, 4), self.SETTINGS), rng.standard_normal(4)

    def test_witness_quantities_match_dense(self, rng):
        def close(a, b):
            return abs(a - b) <= 1e-12 * max(abs(b), 1.0)

        for asm, h in self.cases(rng):
            dense, m = np.diag(h), random_hermitian(rng, asm.d_b)
            got, ref = steering_witness(asm, h), steering_witness(asm, dense)
            assert ref.cond_qfi > 1e-2 and ref.var_reduced > 1e-2
            for field in ("cond_qfi", "cond_var", "delta", "qfi_reduced", "var_reduced"):
                assert close(getattr(got, field), getattr(ref, field)), field
            assert (got.argmax_setting, got.argmin_setting, got.steering) == (ref.argmax_setting, ref.argmin_setting, ref.steering)
            for conditional in (conditional_qfi, conditional_variance):
                assert close(conditional(asm, h)[0], conditional(asm, dense)[0])
            for pair, pair_ref in (((h, m), (dense, m)), ((m, h), (m, dense))):
                for x, y in zip(reid_witness(asm, *pair), reid_witness(asm, *pair_ref)):
                    assert close(x, y)
            # two diagonals commute: the commutator bound is 0
            assert reid_witness(asm, h, h[::-1].copy())[1] == 0.0

    def test_optimal_settings_match_dense(self, rng):
        state = BipartitePureState(dims=(3, 4), amplitudes=random_pure(rng, 12))
        h = rng.standard_normal(4)
        got, ref = optimal_assemblage(state, h), optimal_assemblage(state, np.diag(h))
        for rec, rec_ref in zip(got.settings, ref.settings):
            assert np.max(np.abs(rec.probabilities - rec_ref.probabilities)) < 1e-12
            for st, st_ref in zip(rec.states, rec_ref.states):
                assert np.max(np.abs(st.reconstruct() - st_ref.reconstruct())) < 1e-12

    def test_complex_or_non_finite_diagonal_is_rejected_at_every_entry_point(self):
        asm, m = ghz_assemblage(2), np.diag(collective_jz(2))
        entry_points = (
            steering_witness,
            lambda a, h: conditional_qfi(a, h),
            lambda a, h: conditional_variance(a, h),
            lambda a, h: reid_witness(a, h, m),
            lambda a, h: reid_witness(a, m, h),
        )
        for bad, match in (
            (np.array([1.0, 0.5j, 0.0, -1.0]), "not real"),
            (np.array([1.0, np.nan, 0.0, -1.0]), "non-finite"),
            (np.array([np.inf, 0.0, 0.0, -1.0]), "non-finite"),
        ):
            for entry in entry_points:
                with pytest.raises(ValidationError, match=match):
                    entry(asm, bad)

    def test_ghz_witness_holds_nothing_of_size_d_b_squared(self, monkeypatch):
        import tracemalloc

        import steerkit.assemblage as assemblage_module
        import steerkit.linalg as linalg_module

        def forbidden(*args):
            raise AssertionError("the GHZ witness path ran a blockwise d_B x d_B check")

        ghz_assemblage(2)  # first-call imports and caches stay out of the measurement
        for module in (assemblage_module, linalg_module):
            monkeypatch.setattr(module, "max_abs_by_rows", forbidden)
        n_bob = 12
        tracemalloc.start()
        try:
            report = steering_witness(ghz_assemblage(n_bob), collective_jz(n_bob))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(report.cond_qfi - n_bob**2) < 1e-9 * n_bob**2
        state_vector = 16 * 2 ** (n_bob + 1)  # bytes of the GHZ amplitude vector
        assert peak < 10 * state_vector  # the dense J_z alone would be 2^11 state vectors
