"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Tables backing the figure-style criteria are written to
``artifacts/`` at the repository root.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from steerkit.assemblage import (
    assemblage_from_lhs,
    assemblage_from_pure_state,
    conditional_qfi,
    conditional_variance,
    steering_witness,
)
from steerkit.cli import main as cli_main
from steerkit.experiments import (
    cat_assemblage,
    ghz_assemblage,
    ghz_noise_assemblage,
    ghz_noise_closed_forms,
    maximally_entangled_assemblage,
    quantify_rows,
    split_dicke_assemblage,
    split_dicke_partition_quantities,
)
from steerkit.metrology import qfi, variance
from steerkit.pure import (
    ancilla_invariance_check,
    gellmann_basis,
    multi_generator_sum,
    optimal_povm_qfi,
    optimal_povm_var,
    pure_multi_generator_value,
    qubit_direction_gap,
    s_avg_pure,
    s_max_pure,
    schmidt,
)
from steerkit.sampling import epr_product_check, moment_estimator_validation
from steerkit.states import BipartitePureState, collective_jz, fock_space, spin_ops

from conftest import SY, SZ, random_density, random_hermitian, random_pure, reduced_b, tensor
from test_assemblage import random_lhs_model
from test_pure import batched_delta, delta_for_generator, sample_generators
from test_sampling import plus_state_assemblage

ARTIFACTS = Path(__file__).resolve().parents[1] / "artifacts"


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {title}: PASS")


def emit(args):
    ARTIFACTS.mkdir(exist_ok=True)
    assert cli_main(args) == 0


def test_criterion_01_ghz_exact_values():
    with criterion(1, "GHZ exact values"):
        for n_bob in range(1, 9):
            asm = ghz_assemblage(n_bob, phi=0.4)
            jz = collective_jz(n_bob)
            cq, argmax = conditional_qfi(asm, jz)
            cv, _ = conditional_variance(asm, jz)
            assert abs(cq - n_bob**2) <= 1e-9 * n_bob**2
            assert abs(cv) <= 1e-12
            assert argmax == "sx"


def test_criterion_02_ghz_white_noise():
    with criterion(2, "GHZ white noise"):
        p_grid = [round(0.1 * i, 10) for i in range(1, 10)]
        for n_bob in range(2, 9):
            jz = collective_jz(n_bob)
            flags_dense = []
            flags_asymptotic = []
            near_boundary = []
            p_star = (-1.0 + math.sqrt(1.0 + 4.0 * n_bob)) / (2.0 * n_bob)
            for p in p_grid:
                asm = ghz_noise_assemblage(n_bob, 0.0, p)
                rec = asm.setting("sx")  # sigma_x
                f_x = sum(
                    pa * qfi(st, jz) for pa, st in zip(rec.probabilities, rec.states)
                )
                f_ref, v_ref = ghz_noise_closed_forms(n_bob, p)
                assert f_x >= f_ref - 1e-9
                assert abs(f_x - f_ref) <= 1e-8 * max(f_ref, 1.0)
                report = steering_witness(asm, jz)
                assert abs(report.cond_var - v_ref) <= 1e-8 * max(v_ref, 1.0)
                delta_closed = f_ref / 4.0 - v_ref
                assert (report.delta > 1e-9) == (delta_closed > 0.0)
                flags_dense.append(report.delta > 1e-9)
                flags_asymptotic.append(n_bob > (1.0 - p) / (p * p))
                near_boundary.append(abs(p - p_star) <= 0.1)
            # single sign flip in p, and agreement with the asymptotic
            # predicate away from its boundary
            assert flags_dense == sorted(flags_dense)
            for dense, asym, near in zip(flags_dense, flags_asymptotic, near_boundary):
                assert dense == asym or near


def test_criterion_03_split_twin_fock_fixed():
    with criterion(3, "split twin Fock (fixed split)"):
        for n in range(4, 201, 2):
            half = n // 2
            asm = split_dicke_assemblage(half, half, half)
            jz = spin_ops(half).jz
            report = steering_witness(asm, jz)
            target = n * (n + 4) / 12.0
            var_target = n * (n + 4) / 48.0
            assert abs(report.cond_qfi - target) <= 1e-9 * target
            assert abs(report.var_reduced - var_target) <= 1e-9 * var_target
            assert abs(report.cond_var) <= 1e-12
            assert abs(report.cond_qfi - 4.0 * report.var_reduced) <= 1e-9 * target
            probs = asm.setting("Jx").probabilities
            assert np.max(np.abs(probs - 2.0 / (n + 2.0))) <= 1e-9
        emit(["split-dicke", "--n", "200", "--k", "100", "--out", str(ARTIFACTS / "fig2c_split_dicke_n200.csv")])


def test_criterion_04_split_dicke_partition():
    with criterion(4, "beam-splitter split Dicke"):
        n, p = 100, 0.5
        for k in range(0, n + 1):
            q = split_dicke_partition_quantities(n, k, p)
            ref = n / 4.0 * p * (1.0 - p)
            assert abs(q.var_reduced - ref) <= 1e-9 * ref
            assert abs(q.qfi_reduced) <= 1e-9
            assert abs(q.cond_var) <= 1e-12
        emit(
            [
                "split-dicke-partition",
                "--n",
                "100",
                "--p",
                "0.5",
                "--out",
                str(ARTIFACTS / "fig_sdkpn_partition_n100.csv"),
            ]
        )


def test_criterion_05_hybrid_cat():
    with criterion(5, "hybrid cat"):
        alphas = [round(0.05 * i, 10) for i in range(0, 41)]
        gaps = []
        for alpha in alphas:
            asm = cat_assemblage(alpha)
            mode = fock_space(asm.d_b)
            cv_x, _ = conditional_variance(asm, mode.x)
            cq_x, _ = conditional_qfi(asm, mode.x)
            cv_p, _ = conditional_variance(asm, mode.p)
            assert abs(cv_x - 0.5) <= 1e-8
            ref_q = 2.0 * alpha**2 + 0.5
            assert abs(cq_x / 4.0 - ref_q) <= 1e-7 * ref_q
            ref_p = 0.5 - 2.0 * alpha**2 * math.exp(-4.0 * alpha**2)
            assert abs(cv_p - ref_p) <= 1e-7 * ref_p
            gaps.append(cq_x - 1.0 / cv_p)
        # Reid's lower bound tracks the QFI at alpha = 0 and falls behind as
        # alpha grows
        assert abs(gaps[0]) <= 1e-6
        for i in range(10, 40):
            assert gaps[i + 1] > gaps[i] > 0.0
        emit(["cat", "--alpha", "0:2:0.05", "--out", str(ARTIFACTS / "fig_cat_alpha.csv")])


def test_criterion_06_optimal_povm_theorem():
    with criterion(6, "optimal-measurement theorem"):
        rng = np.random.default_rng(606)
        for d in range(2, 7):
            for _ in range(100):
                state = BipartitePureState(dims=(d, d), amplitudes=random_pure(rng, d * d))
                h = random_hermitian(rng, d)
                rho_b = reduced_b(state)
                asm = assemblage_from_pure_state(
                    state,
                    [
                        ("qfi-opt", optimal_povm_qfi(state, h)),
                        ("var-opt", optimal_povm_var(state, h)),
                    ],
                )
                qfi_target = 4.0 * variance(rho_b, h)
                var_target = qfi(rho_b, h) / 4.0
                rec_q = asm.setting("qfi-opt")
                rec_v = asm.setting("var-opt")
                achieved_q = sum(p * qfi(st, h) for p, st in zip(rec_q.probabilities, rec_q.states))
                achieved_v = sum(
                    p * variance(st, h) for p, st in zip(rec_v.probabilities, rec_v.states)
                )
                assert abs(achieved_q - qfi_target) <= 1e-8 * max(qfi_target, 1e-9)
                assert abs(achieved_v - var_target) <= 1e-8 * max(var_target, 1e-9)


def test_criterion_07_lhs_soundness():
    with criterion(7, "LHS soundness"):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            model = random_lhs_model(rng)
            asm = assemblage_from_lhs(model)
            h = random_hermitian(rng, asm.d_b)
            report = steering_witness(asm, h)
            assert report.delta <= 1e-9


def test_criterion_08_quantifiers():
    with criterion(8, "steering quantifiers"):
        rng = np.random.default_rng(808)
        # sampled-and-refined sphere maximum vs the closed form
        for trial in range(50):
            d = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(d))
            closed = s_max_pure(p)
            _, mats = sample_generators(rng, d, 100_000)
            deltas = batched_delta(p, mats)
            assert float(deltas.max()) <= closed + 1e-10
            basis = gellmann_basis(d)
            best = mats[int(np.argmax(deltas))]
            vec = np.array([np.trace(g.conj().T @ best).real for g in basis.generators])
            vec /= np.linalg.norm(vec)

            def neg_delta(v):
                v = v / np.linalg.norm(v)
                return -delta_for_generator(p, np.tensordot(v, basis.generators, 1))

            res = scipy.optimize.minimize(neg_delta, vec, method="BFGS", options={"gtol": 1e-12})
            refined = -res.fun
            assert refined <= closed + 1e-10
            assert closed - refined <= 1e-3
        # sphere-average oracle for the averaged quantifier
        for d, seed in ((2, 1), (3, 2), (3, 3), (4, 4), (4, 5)):
            local = np.random.default_rng(seed)
            p = local.dirichlet(np.ones(d))
            _, mats = sample_generators(local, d, 100_000)
            scaled = (d * d - 1) * batched_delta(p, mats)
            stderr = float(scaled.std(ddof=1)) / math.sqrt(scaled.size)
            # d = 2 makes the integrand constant (direction-independent gap):
            # allow a machine-precision floor on top of the 3 sigma window
            assert abs(float(scaled.mean()) - s_avg_pure(p)) <= 3.0 * stderr + 1e-12
        # maximally entangled qubit values
        assert abs(s_max_pure([0.5, 0.5]) - 0.5) <= 1e-12
        assert abs(s_avg_pure([0.5, 0.5]) - 1.5) <= 1e-12
        _, mats = sample_generators(rng, 2, 50_000)
        deltas = batched_delta(np.array([0.5, 0.5]), mats)
        assert float(deltas.max()) <= 0.5 + 1e-12
        assert 0.5 - float(deltas.max()) <= 1e-3
        scaled = 3.0 * batched_delta(np.array([0.5, 0.5]), mats)
        stderr = float(scaled.std(ddof=1)) / math.sqrt(scaled.size)
        assert abs(float(scaled.mean()) - 1.5) <= 3.0 * stderr + 1e-12
        # spectrum-grid maximum of s_max on the d = 3 simplex sits at a
        # permutation of (1/2, 1/2, 0)
        header, rows = quantify_rows(step=0.01)
        best = max(rows, key=lambda r: r[2])
        spectrum = np.sort([best[0], best[1], 1.0 - best[0] - best[1]])[::-1]
        assert np.max(np.abs(spectrum - np.array([0.5, 0.5, 0.0]))) <= 1e-9
        emit(["quantify", "--step", "0.01", "--out", str(ARTIFACTS / "fig_measures_simplex.csv")])


def test_criterion_09_multi_generator():
    with criterion(9, "multi-generator witness"):
        asm, _ = maximally_entangled_assemblage(2)
        value, bound = multi_generator_sum(asm, gellmann_basis(2))
        assert abs(value - 6.0) <= 1e-9 * 6.0
        assert bound == 4.0
        assert value > bound
        rng = np.random.default_rng(909)
        for d in range(2, 6):
            basis = gellmann_basis(d)
            for _ in range(3):
                state = BipartitePureState(dims=(d, d), amplitudes=random_pure(rng, d * d))
                settings = [
                    (f"g{i}", optimal_povm_qfi(state, g)) for i, g in enumerate(basis.generators)
                ]
                asm = assemblage_from_pure_state(state, settings)
                value, _ = multi_generator_sum(asm, basis)
                ref = pure_multi_generator_value(schmidt(state).coefficients)
                assert abs(value - ref) <= 1e-8 * ref


def test_criterion_10_qubit_gap_identity():
    with criterion(10, "qubit gap identity"):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            state = BipartitePureState(dims=(2, 2), amplitudes=random_pure(rng, 4))
            rho_b = reduced_b(state)
            target = 8.0 * (1.0 - float(np.trace(rho_b @ rho_b).real))
            directions = rng.standard_normal((10, 3))
            gaps = np.array([qubit_direction_gap(state, nvec) for nvec in directions])
            assert np.max(np.abs(gaps - target)) <= 1e-8
            assert float(gaps.max() - gaps.min()) <= 1e-8


def test_criterion_11_monte_carlo_estimator():
    with criterion(11, "Monte Carlo estimator"):
        n, reps = 10_000, 200
        run = moment_estimator_validation(
            plus_state_assemblage(), SZ / 2, SY, theta_true=0.01, n=n, reps=reps, seed=1111
        )
        rel_se = math.sqrt(2.0 / (reps - 1))
        assert abs(run.empirical_var - run.predicted_var) <= 5.0 * rel_se * run.predicted_var
        # EPR product flag fires on the Bell strategy
        from steerkit.experiments import bell_assemblage

        bell_check = epr_product_check(
            bell_assemblage(), SZ / 2, [SY, -SY], n=n, reps=reps, seed=1112, theta_setting="sx"
        )
        assert bell_check.epr_flag
        # and never on product-state strategies
        rng = np.random.default_rng(1113)
        from steerkit.assemblage import assemblage_from_state
        from steerkit.experiments import qubit_basis_povm

        tested = 0
        while tested < 20:
            rho_b = random_density(rng, 2)
            h = random_hermitian(rng, 2)
            m = random_hermitian(rng, 2)
            if abs(np.trace(rho_b @ (h @ m - m @ h))) < 0.05:
                continue
            spectral_radius = float(np.max(np.abs(np.linalg.eigvalsh(h))))
            joint = tensor(np.diag([0.5, 0.5]).astype(complex), rho_b)
            asm = assemblage_from_state(joint, (2, 2), [("sz", qubit_basis_povm("z"))])
            check = epr_product_check(
                asm, h, m, theta_true=min(0.01, 0.05 / spectral_radius), n=n, reps=reps,
                seed=2000 + tested,
            )
            assert not check.epr_flag
            tested += 1


def test_criterion_12_ancilla_invariance():
    with criterion(12, "ancilla invariance"):
        rng = np.random.default_rng(1212)
        for _ in range(50):
            d_a = int(rng.integers(2, 4))
            d_b = int(rng.integers(2, 4))
            anc = int(rng.integers(2, 5))
            state = BipartitePureState(dims=(d_a, d_b), amplitudes=random_pure(rng, d_a * d_b))
            assert ancilla_invariance_check(state, anc)
