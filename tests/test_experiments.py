import math

import numpy as np
import pytest

from steerkit.assemblage import (
    assemblage_from_pure_state,
    conditional_qfi,
    conditional_variance,
    steering_witness,
)
from steerkit.experiments import (
    MAX_FOCK_CUTOFF,
    MAX_PARTITION_N,
    cat_rows,
    ghz_noise_closed_forms,
    ghz_noise_rows,
    ghz_rows,
    multigen_rows,
    quantify_rows,
    qubit_basis_povm,
    split_dicke_assemblage,
    split_dicke_partition_quantities,
    split_dicke_partition_rows,
    split_dicke_partition_table,
    split_dicke_rows,
)
from steerkit.linalg import TOL, NumericError, ValidationError
from steerkit.metrology import povm_from_basis, qfi, variance
from steerkit.pure import s_avg_pure, s_max_pure
from steerkit.states import collective_jz, ghz_state, spin_ops, wigner_rotation_matrix

from conftest import partition_labels, split_dicke_beamsplitter


def partition_generic_assemblage(n, k, p):
    """Generic assemblage route for the beam-splitter state (small n only)."""
    state = split_dicke_beamsplitter(k, n, p)
    d = state.d_a
    labels = partition_labels(n)
    eye = np.eye(d, dtype=complex)
    z_basis = eye
    x_basis = np.zeros((d, d), dtype=complex)
    # block-diagonal quarter-turn rotation within each particle-number sector
    for n_a in sorted({na for na, _ in labels}):
        idx = [i for i, (na, _) in enumerate(labels) if na == n_a]
        w = np.asarray(wigner_rotation_matrix(n_a, math.pi / 2))
        for col_pos, i in enumerate(idx):
            for row_pos, j in enumerate(idx):
                k_row = labels[j][1]
                k_col = labels[i][1]
                x_basis[j, i] = w[k_row, k_col]
    jz_full = np.diag([kb - nb / 2.0 for nb, kb in labels]).astype(complex)
    asm = assemblage_from_pure_state(
        state,
        [("Jz", povm_from_basis(z_basis)), ("Jx", povm_from_basis(x_basis))],
    )
    return asm, jz_full


class TestPartitionBlocks:
    # n = 40 (d = 861 per side) is the largest whose dense generic route takes a few seconds
    @pytest.mark.parametrize("n,k,p", [(4, 2, 0.5), (6, 3, 0.3), (6, 2, 0.5), (8, 4, 0.5), (30, 10, 0.3), (40, 20, 0.5)])
    def test_block_evaluation_matches_generic(self, n, k, p):
        q = split_dicke_partition_quantities(n, k, p)
        asm, jz = partition_generic_assemblage(n, k, p)
        ref = steering_witness(asm, jz)
        assert abs(q.cond_qfi - ref.cond_qfi) < 1e-9 * max(ref.cond_qfi, 1.0)
        assert abs(q.cond_var - ref.cond_var) < 1e-10
        # delta = cond_qfi - 4 cond_var, so its tolerance is the cond_qfi one plus four times the cond_var one
        assert abs(q.delta - ref.delta) < 1e-9 * max(ref.cond_qfi, 1.0) + 4e-10
        assert abs(q.var_reduced - ref.var_reduced) < 1e-10
        assert abs(q.qfi_reduced - ref.qfi_reduced) < 1e-9
        assert q.steering == ref.steering
        if ref.cond_qfi > TOL.witness:  # else every setting ties at 0 and the first, Jz, is the argmax
            assert (q.argmax_setting, q.argmin_setting) == (ref.argmax_setting, ref.argmin_setting) == ("Jx", "Jz")

    def test_reduced_variance_formula(self):
        for n, k, p in [(10, 5, 0.5), (12, 4, 0.25)]:
            header, rows = split_dicke_partition_rows(n, p, [k])
            q = dict(zip(header, rows[0]))
            assert abs(q["var_reduced"] - q["var_reduced_ref"]) < 1e-10

    def test_twin_fock_saturates_reduced_bound(self):
        q = split_dicke_partition_quantities(10, 5, 0.5)
        assert abs(q.cond_qfi - 4.0 * q.var_reduced) < 1e-9

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_table_at_its_limit_passes_the_sandwich_guard(self, p):
        # at p = 0.5 the twin-Fock row k = n/2 holds cond_qfi = 4 Var[rho_B] with equality
        reports = split_dicke_partition_table(MAX_PARTITION_N, p, range(MAX_PARTITION_N + 1))
        assert len(reports) == MAX_PARTITION_N + 1

    def test_rows_follow_requested_ks(self):
        ks = [7, 2, 9, 2, 0, 7, 10]
        header, rows = split_dicke_partition_rows(10, 0.35, ks)
        assert [row[0] for row in rows] == ks
        for k, row in zip(ks, rows):
            q = split_dicke_partition_quantities(10, k, 0.35)
            assert row == [k, q.cond_var, 0.0, q.cond_qfi, q.var_reduced, 10 / 4.0 * 0.35 * 0.65, q.qfi_reduced, 0.0]

    @pytest.mark.parametrize("p", [0.3, 0.0, 1.0])
    def test_whole_table_matches_generic(self, p):
        n = 6
        header, rows = split_dicke_partition_rows(n, p, range(n + 1))
        for k, row in enumerate(rows):
            q = dict(zip(header, row))
            asm, jz = partition_generic_assemblage(n, k, p)
            cq, _ = conditional_qfi(asm, jz)
            cv, _ = conditional_variance(asm, jz)
            rho_b = asm.reduced_spectrum().reconstruct()
            assert abs(q["cond_qfi"] - cq) < 1e-9 * max(cq, 1.0)
            assert abs(q["cond_var"] - cv) < 1e-10
            assert abs(q["var_reduced"] - variance(rho_b, jz)) < 1e-10
            assert abs(q["qfi_reduced"] - qfi(rho_b, jz)) < 1e-9

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError, match="k=11"):
            split_dicke_partition_rows(10, 0.5, [3, 11])
        with pytest.raises(ValidationError, match="k=-1"):
            split_dicke_partition_rows(10, 0.5, [-1])
        with pytest.raises(ValidationError, match="splitting ratio"):
            split_dicke_partition_rows(10, 1.5, [3])

    def test_rows_never_negative(self):
        # k = 0 and k = n are product states, whose conditional QFI is 0 up to roundoff
        header, rows = split_dicke_partition_rows(10, 0.5, range(0, 11))
        for row in rows:
            q = dict(zip(header, row))
            assert q["cond_qfi"] >= 0.0
            assert q["cond_var"] >= 0.0


class TestRowTables:
    def test_ghz_rows_values(self):
        header, rows = ghz_rows([2, 3])
        assert header[0] == "n_bob"
        for row in rows:
            n, cq, cq_ref, cv, cv_ref, delta, steer = row
            assert cq_ref == float(n * n)
            assert abs(cq - cq_ref) < 1e-9 * cq_ref
            assert abs(cv) < 1e-12
            assert steer == 1

    def test_ghz_rows_are_the_noisy_table_at_p_1(self):
        header, rows = ghz_rows(range(1, 6), 0.4)
        noisy_header, noisy_rows = ghz_noise_rows(range(1, 6), [1.0], 0.4)
        assert [name for name in noisy_header if name not in header] == ["p", "steering_asymptotic"]
        keep = [noisy_header.index(name) for name in header]
        assert rows == [[row[i] for i in keep] for row in noisy_rows]
        # and the pure route, assemblage_from_pure_state on the GHZ vector, gives the same bits
        settings = [("sz", qubit_basis_povm("z")), ("sx", qubit_basis_povm("x"))]
        for n_bob, cond_qfi, _, cond_var, _, delta, _ in rows:
            report = steering_witness(assemblage_from_pure_state(ghz_state(n_bob + 1, 0.4), settings), collective_jz(n_bob))
            assert (report.cond_qfi, report.cond_var, report.delta) == (cond_qfi, cond_var, delta)

    def test_ghz_noise_rows_match_closed_form(self):
        header, rows = ghz_noise_rows([3], [0.3, 0.7])
        for row in rows:
            n, p, cq, cq_ref, cv, cv_ref, delta, steer, asym = row
            f_ref, v_ref = ghz_noise_closed_forms(n, p)
            assert abs(cq - f_ref) < 1e-8 * max(f_ref, 1.0)
            assert abs(cv - v_ref) < 1e-8 * max(v_ref, 1.0)

    def test_split_dicke_rows_twin_fock(self):
        n = 8
        header, rows = split_dicke_rows(n, n // 2)
        outcome_rows = [r for r in rows if r[0] == "outcome"]
        assert len(outcome_rows) == n // 2 + 1
        for _, k_a, p, p_ref, fq, fq_ref in outcome_rows:
            assert abs(p - 2.0 / (n + 2)) < 1e-12
            assert abs(fq - fq_ref) < 1e-9 * max(fq_ref, 1.0)
        summary = {r[0]: r for r in rows if str(r[0]).startswith("summary")}
        assert abs(summary["summary:cond_qfi"][4] - n * (n + 4) / 12.0) < 1e-9

    def test_split_dicke_rows_diagonal_jz_matches_dense(self):
        # the table passes J_z as its real diagonal; each outcome's QFI is the dense matrix's
        header, rows = split_dicke_rows(200, 100)
        outcome_rows = [r for r in rows if r[0] == "outcome"]
        states = split_dicke_assemblage(100, 100, 100).setting("Jx").states
        jz = spin_ops(100).jz
        assert jz.ndim == 2 and len(outcome_rows) == len(states) == 101
        for row, st in zip(outcome_rows, states):
            dense = qfi(st, jz)
            assert abs(row[4] - dense) <= 1e-12 * max(abs(dense), 1.0)

    def test_split_dicke_rows_general_k_has_blank_refs(self):
        header, rows = split_dicke_rows(8, 3)
        outcome_rows = [r for r in rows if r[0] == "outcome"]
        assert all(r[3] == "" and r[5] == "" for r in outcome_rows)

    def test_cat_rows_reference_columns(self):
        header, rows = cat_rows([0.0, 0.5, 1.0])
        for row in rows:
            alpha, cutoff, cq, cq_ref, cvx, cvx_ref, cvp, cvp_ref, reid = row
            assert abs(cq - cq_ref) < 1e-7 * max(cq_ref, 1.0)
            assert abs(cvx - 0.5) < 1e-8
            assert abs(cvp - cvp_ref) < 1e-7 * cvp_ref

    def test_cat_crossing_behavior(self):
        # Reid's lower bound 1/cond_var_p drops below the conditional QFI at
        # large alpha while both witness steering for alpha > 0
        header, rows = cat_rows([0.25, 1.5])
        small, large = rows
        assert small[8] > 1.0 / 0.5  # Reid informative at small alpha
        assert large[2] > large[8]  # QFI witness dominates at large alpha

    def test_quantify_rows_match_pointwise_loop(self):
        # every grid point against the per-point eigensolve and the (i, j)
        # double loop the table evaluated before it became one stack
        header, rows = quantify_rows(step=0.01)
        assert len(rows) == 5151
        for x, y, s_max, s_avg_scaled in rows:
            p = np.array([x, y, max(1.0 - x - y, 0.0)])
            p = p / p.sum()
            assert s_max == s_max_pure(p) == max(float(np.linalg.eigvalsh(np.diag(p) - np.outer(p, p))[-1]), 0.0)
            total = 0.0
            for i in range(3):
                for j in range(3):
                    if i != j and p[i] + p[j] > 0.0:
                        total += p[i] * p[j] * (1.0 + 2.0 / (p[i] + p[j]))
            assert s_avg_scaled == s_avg_pure(p) / 8.0 == total / 8.0

    def test_quantify_step_must_divide_one(self):
        with pytest.raises(ValidationError, match="divide 1"):
            quantify_rows(step=0.6)
        for step in (0.01, 0.05, 0.25):
            header, rows = quantify_rows(step=step)
            assert all(x + y <= 1.0 + 1e-12 for x, y, _, _ in rows)

    def test_quantify_rows_peak_at_half_half(self):
        header, rows = quantify_rows(step=0.05)
        best = max(rows, key=lambda r: r[2])
        spectrum = sorted([best[0], best[1], 1 - best[0] - best[1]], reverse=True)
        assert abs(spectrum[0] - 0.5) < 0.051
        assert abs(spectrum[1] - 0.5) < 0.051

    def test_multigen_decomposes_each_state_once(self, monkeypatch):
        # one Schmidt SVD per d, and one stacked conditioning SVD per setting: the optimal bases
        # are complete, so no orthonormal completion needs one
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(np.shape(a)) or svd(a, *args, **kw))
        multigen_rows([3, 4])
        schmidt_calls = [shape for shape in calls if len(shape) == 2]
        assert schmidt_calls == [(3, 3), (4, 4)]
        assert sorted(shape for shape in calls if len(shape) == 3) == [(3, 3, 1)] * 8 + [(4, 4, 1)] * 15

    def test_multigen_rows(self):
        header, rows = multigen_rows([2, 3])
        for row in rows:
            d, value, ref, bound, violated = row
            assert abs(value - ref) < 1e-8 * ref
            assert bound == 4.0 * (d - 1)
            assert violated == 1



class TestTablesAreGuarded:
    """The cat and partition tables build their reports through ``witness_report``, so a forged
    violation of cond_qfi <= 4 Var[rho_B] raises."""

    def test_cat_table(self, monkeypatch):
        import steerkit.assemblage as module

        true_qfi = module.qfi
        monkeypatch.setattr(module, "qfi", lambda st, h: 2.0 * true_qfi(st, h))
        with pytest.raises(NumericError, match=r"cond_qfi = .* > 4 Var\[rho_B\]"):
            cat_rows([1.0])

    def test_cat_table_at_its_cutoff_limit(self):
        # the x quadrature is an equality case, cond_qfi = 4 Var[rho_B], at the largest cutoff
        alpha = 23.93
        header, rows = cat_rows([alpha])
        row = dict(zip(header, rows[0]))
        assert row["cutoff"] == MAX_FOCK_CUTOFF
        assert abs(row["cond_qfi_x"] - row["cond_qfi_x_ref"]) < 1e-9 * row["cond_qfi_x_ref"]

    def test_partition_table(self, monkeypatch):
        import steerkit.experiments as module

        true_rotation = module.wigner_rotation_matrix
        # scaling the quarter-turn by sqrt(2) doubles every J_x outcome weight, and so cond_qfi
        monkeypatch.setattr(module, "wigner_rotation_matrix", lambda n, angle: math.sqrt(2.0) * true_rotation(n, angle))
        with pytest.raises(NumericError, match=r"cond_qfi = .* > 4 Var\[rho_B\]"):
            split_dicke_partition_rows(10, 0.5, [5])


class TestGhzNoiseAtScale:
    def test_threshold_crossing_at_n_bob_20(self):
        # n_bob = 17..21 at p = 0.2, around the asymptotic threshold (1 - p)/p^2 = 20
        tol = 1e-8  # the ghz_noise.csv tolerance of TestReferenceColumns
        header, rows = ghz_noise_rows(range(17, 22), [0.2])
        col = {name: i for i, name in enumerate(header)}
        assert [row[col["n_bob"]] for row in rows] == [17, 18, 19, 20, 21]
        closed = {}
        for row in rows:
            n_bob = row[col["n_bob"]]
            f_ref, v_ref = ghz_noise_closed_forms(n_bob, 0.2)
            assert abs(row[col["cond_qfi"]] - f_ref) <= tol * max(abs(f_ref), 1.0)
            assert abs(row[col["cond_var"]] - v_ref) <= tol * max(abs(v_ref), 1.0)
            closed[n_bob] = f_ref / 4.0 - v_ref
            assert np.sign(row[col["delta"]]) == np.sign(closed[n_bob])
        assert -1.6e-4 < closed[20] < -1.5e-4 and 0.2 < closed[21] < 0.22
        assert [row[col["steering"]] for row in rows] == [0, 0, 0, 0, 1]


class TestSizeLimits:
    """Each size over its documented limit is rejected before any row is computed."""

    @pytest.mark.parametrize(
        "call, limit",
        [
            (lambda: ghz_rows([1, 23]), "MAX_STATE_BYTES"),
            (lambda: ghz_noise_rows([2, 30], [0.5]), "MAX_STATE_BYTES"),
            (lambda: quantify_rows(step=0.0005), "MAX_QUANTIFY_POINTS"),
            (lambda: multigen_rows([2, 17]), "MAX_MULTIGEN_D"),
            (lambda: split_dicke_rows(200_000, 100_000), "MAX_SPLIT_DICKE_N"),
            (lambda: split_dicke_partition_rows(401, 0.5, [0]), "MAX_PARTITION_N"),
        ],
    )
    def test_over_limit_is_rejected_up_front(self, monkeypatch, call, limit):
        import steerkit.experiments as module

        def computed(*args):
            pytest.fail("rows computed before the check")

        monkeypatch.setattr(module, "parallel_map", computed)
        monkeypatch.setattr(module, "split_dicke_assemblage", computed)
        with pytest.raises(ValidationError, match=limit):
            call()

    def test_largest_sizes_are_accepted(self):
        from steerkit.experiments import MAX_QUANTIFY_POINTS
        from steerkit.states import MAX_QUBITS, MAX_STATE_BYTES, require_qubits

        assert MAX_QUBITS == 23 and 16 * 2**MAX_QUBITS == MAX_STATE_BYTES
        assert require_qubits(MAX_QUBITS) == MAX_QUBITS
        assert 1001 * 1002 // 2 <= MAX_QUANTIFY_POINTS < 2001 * 2002 // 2  # step 0.001 fits, 0.0005 does not
