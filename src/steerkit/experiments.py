"""Worked-example evaluations shared by the CLI and the acceptance tests.

Each ``*_rows`` function returns (header, rows) where every row pairs computed
quantities with the analytic reference value when one exists (empty cell
otherwise).  Parameter grids are evaluated in grid order; the partition-noise
table (all ks at once, one pass per N_A sector) and the ``quantify`` simplex
(one stack of spectra) are evaluated whole, as arrays.

Every size a table takes is checked against its limit before any row is
computed: GHZ qubits against ``states.MAX_STATE_BYTES``, and
``MAX_QUANTIFY_POINTS``, ``MAX_MULTIGEN_D``, ``MAX_SPLIT_DICKE_N``,
``MAX_PARTITION_N``, ``MAX_FOCK_CUTOFF``, ``MAX_ESTIMATE_SHOTS`` and
``MAX_ESTIMATE_REPS`` below.
"""

from __future__ import annotations

import math

import numpy as np

from .assemblage import (
    Assemblage,
    WitnessReport,
    assemblage_from_pure_state,
    assemblage_from_state,
    conditional_variance,
    steering_witness,
    witness_report,
)
from .linalg import TOL, NumericError, ValidationError
from .metrology import POVM, povm_from_basis, qfi
from .pure import gellmann_basis, multi_generator_sum, optimal_povm_qfi, s_avg_pure, s_max_pure
from .states import (
    BipartitePureState,
    default_fock_cutoff,
    dicke_bounds,
    fock_space,
    ghz_white_noise_state,
    hybrid_cat,
    collective_jz,
    partition_sector_amplitudes,
    require_qubits,
    spin_ops,
    split_dicke_fixed,
    wigner_rotation_matrix,
)


# Each limit's measured time and memory are in README's limits table; the comments give how the cost grows.
MAX_QUANTIFY_POINTS = 1_000_000  # d = 3 simplex grid points: step 0.001 (501,501 points) fits
MAX_MULTIGEN_D = 16  # the table's cost grows as d^7
MAX_SPLIT_DICKE_N = 2000  # cost grows as n^3: dense (n/2 + 1)^2 matrices are multiplied and diagonalised
MAX_PARTITION_N = 400  # cost grows as n^4, and each rotation cached is (n_A + 1)^2 floats
MAX_FOCK_CUTOFF = 750  # cat's cutoff, alpha up to ~23.9; its Fock operators are dense cutoff x cutoff matrices
MAX_ESTIMATE_SHOTS = 2**63 - 1  # numpy's multinomial counts are int64
MAX_ESTIMATE_REPS = 200_000  # time and CSV rows grow linearly, one per repetition


def _check_limit(value: int | float, limit: int, what: str, name: str) -> None:
    """Reject a size over its documented limit, naming the limit."""
    if value > limit:
        shown = f"{value:.0f}" if isinstance(value, float) else value  # an int may not fit a float
        raise ValidationError(f"{what} {shown} is over the limit {name} = {limit}")


def parallel_map(fn, items):
    """Order-preserving map over grid points."""
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# Measurement settings for the worked examples
# ---------------------------------------------------------------------------

def qubit_basis_povm(axis: str) -> POVM:
    """Projective qubit measurement along z, x or y."""
    if axis == "z":
        basis = np.eye(2, dtype=complex)
    elif axis == "x":
        basis = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    elif axis == "y":
        basis = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2.0)
    else:
        raise ValidationError(f"unknown qubit axis {axis!r}")
    return povm_from_basis(basis, labels=[f"{axis}+", f"{axis}-"])


def ghz_assemblage(n_bob: int, phi: float = 0.0) -> Assemblage:
    """GHZ state of n_bob + 1 qubits with Alice measuring sigma_z or sigma_x: the noisy one at p = 1."""
    return ghz_noise_assemblage(n_bob, phi, 1.0)


def ghz_noise_assemblage(n_bob: int, phi: float, p: float) -> Assemblage:
    """The noisy GHZ state in spectral form (rank 1 over its floor), with Alice measuring sigma_z or sigma_x."""
    rho = ghz_white_noise_state(n_bob + 1, phi, p)
    return assemblage_from_state(rho, (2, 2**n_bob), [("sz", qubit_basis_povm("z")), ("sx", qubit_basis_povm("x"))])


def spin_z_setting(n_particles: int) -> POVM:
    return povm_from_basis(
        np.eye(n_particles + 1, dtype=complex),
        labels=[f"k={j}" for j in range(n_particles + 1)],
    )


def spin_x_setting(n_particles: int) -> POVM:
    """Projectors onto |k>_x = exp(-i pi/2 Jy) |k>."""
    basis = np.asarray(wigner_rotation_matrix(n_particles, math.pi / 2.0), dtype=complex)
    return povm_from_basis(basis, labels=[f"k={j}" for j in range(n_particles + 1)])


def split_dicke_assemblage(k: int, n_a: int, n_b: int) -> Assemblage:
    state = split_dicke_fixed(k, n_a, n_b)
    return assemblage_from_pure_state(
        state, [("Jz", spin_z_setting(n_a)), ("Jx", spin_x_setting(n_a))]
    )


def cat_assemblage(alpha: float) -> Assemblage:
    state = hybrid_cat(alpha)
    return assemblage_from_pure_state(
        state,
        [("z", qubit_basis_povm("z")), ("x", qubit_basis_povm("x")), ("y", qubit_basis_povm("y"))],
    )


def bell_assemblage() -> Assemblage:
    return ghz_assemblage(1)


def maximally_entangled_assemblage(d: int) -> tuple[Assemblage, BipartitePureState]:
    """|Phi_d> with one optimal setting per SU(d) generator."""
    amps = np.zeros(d * d, dtype=complex)
    for i in range(d):
        amps[i * d + i] = 1.0 / math.sqrt(d)
    state = BipartitePureState(dims=(d, d), amplitudes=amps)
    basis = gellmann_basis(d)
    settings = [(f"gen{i}", optimal_povm_qfi(state, g)) for i, g in enumerate(basis.generators)]
    return assemblage_from_pure_state(state, settings), state


# ---------------------------------------------------------------------------
# GHZ tables
# ---------------------------------------------------------------------------

def _ghz_sizes(n_values) -> list[int]:
    """Bob's qubit counts, once the largest GHZ state (n_bob + 1 qubits) passes ``require_qubits``."""
    n_values = [int(n) for n in n_values]
    if n_values:
        require_qubits(max(n_values) + 1)
    return n_values


def ghz_rows(n_values, phi: float = 0.0):
    """``ghz_noise_rows`` at p = 1, without its p and steering_asymptotic columns: references n_bob^2 and 0."""
    header, rows = ghz_noise_rows(n_values, [1.0], phi)
    return [header[0], *header[2:-1]], [[row[0], *row[2:-1]] for row in rows]


def ghz_noise_closed_forms(n_bob: int, p: float) -> tuple[float, float]:
    """(conditional QFI, conditional variance) of the noisy GHZ settings."""
    d = 2.0**n_bob
    f = p * p * n_bob * n_bob / (p + 2.0 * (1.0 - p) / d)
    v = (1.0 - p) * n_bob / 4.0 + p * (1.0 - p) * n_bob * n_bob / 4.0
    return f, v


def ghz_noise_rows(n_values, p_values, phi: float = 0.0):
    header = [
        "n_bob",
        "p",
        "cond_qfi",
        "cond_qfi_ref",
        "cond_var",
        "cond_var_ref",
        "delta",
        "steering",
        "steering_asymptotic",
    ]
    grid = [(n, float(p)) for n in _ghz_sizes(n_values) for p in p_values]

    def one(point):
        n_bob, p = point
        asm = ghz_noise_assemblage(n_bob, phi, p)
        jz = collective_jz(n_bob)
        report = steering_witness(asm, jz)
        f_ref, v_ref = ghz_noise_closed_forms(n_bob, p)
        asymptotic = int(n_bob > (1.0 - p) / (p * p)) if p > 0 else 0
        return [n_bob, p, report.cond_qfi, f_ref, report.cond_var, v_ref, report.delta, int(report.steering), asymptotic]

    return header, parallel_map(one, grid)


# ---------------------------------------------------------------------------
# Split Dicke, fixed partition
# ---------------------------------------------------------------------------

def split_dicke_rows(n: int, k: int):
    """Per-outcome sensitivity table for the deterministically split Dicke state."""
    n, k = int(n), int(k)
    _check_limit(n, MAX_SPLIT_DICKE_N, "split-dicke n", "MAX_SPLIT_DICKE_N")
    if n % 2:
        raise ValidationError("the split-Dicke table assumes an even split; n must be even")
    n_a = n_b = n // 2
    asm = split_dicke_assemblage(k, n_a, n_b)
    jz_b = spin_ops(n_b).jz.diagonal().real
    twin = k * 2 == n
    rec = asm.setting("Jx")
    header = ["kind", "k_a", "p", "p_ref", "fq_cond", "fq_cond_ref"]
    rows = []
    for label, p, st in zip(rec.outcomes, rec.probabilities, rec.states):
        k_a = int(label.split("=")[1])
        fq = qfi(st, jz_b)
        p_ref = 2.0 / (n + 2.0) if twin else ""
        fq_ref = (2.0 * k_a * (n - 2.0 * k_a) + n) / 2.0 if twin else ""
        rows.append(["outcome", k_a, float(p), p_ref, fq, fq_ref])
    report = steering_witness(asm, jz_b)
    lo, hi = dicke_bounds(k, n_a, n_b)
    var_ref = (hi - lo + 2) * (hi - lo) / 12.0
    summary_ref = n * (n + 4.0) / 12.0 if twin else ""
    rows.append(["summary:cond_qfi", "", "", "", report.cond_qfi, summary_ref])
    rows.append(["summary:cond_var", "", "", "", report.cond_var, 0.0])
    rows.append(["summary:var_reduced", "", "", "", report.var_reduced, var_ref])
    rows.append(["summary:qfi_reduced", "", "", "", report.qfi_reduced, 0.0])
    return header, rows


# ---------------------------------------------------------------------------
# Split Dicke through a beam splitter (block evaluation over number sectors)
# ---------------------------------------------------------------------------

def split_dicke_partition_quantities(n: int, k: int, p: float) -> WitnessReport:
    """Witness report of one beam-splitter split Dicke state: the one-k case of
    ``split_dicke_partition_table``."""
    return split_dicke_partition_table(n, p, [k])[0]


def split_dicke_partition_table(n: int, p: float, k_values) -> list[WitnessReport]:
    """Sector-blocked evaluation of the partition-noise split Dicke example, all ks at once.

    Alice reads out (J_z or J_x) together with her particle number N_A;
    conditional states live in single (N_B = n - N_A) spin sectors, so the
    witness quantities decompose over sectors and n = 100 stays cheap.  Each
    N_A sector is one array pass: the (k, k_A) amplitude matrix of every
    requested k, and the J_x readout as its weights times the quarter-turn
    overlap.  Each report (``witness_report``, so the sandwich bounds are
    checked) names the J_x readout as the argmax and J_z as the argmin.
    Results follow the order of ``k_values``, duplicates included.
    """
    n, ks = int(n), [int(k) for k in k_values]
    _check_limit(n, MAX_PARTITION_N, "partition table n", "MAX_PARTITION_N")
    for k in ks:
        if n < 1 or not 0 <= k <= n:
            raise ValidationError(f"invalid Dicke parameters k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"splitting ratio must be in [0, 1], got {p}")
    ks = np.array(ks, dtype=int)
    cond_qfi, m1_red, m2_red, total_weight = np.zeros((4, ks.size))
    for n_a in range(0, n + 1):
        weights = partition_sector_amplitudes(n, ks, p, n_a) ** 2  # (k, k_A)
        sector_weight = weights.sum(axis=1)
        kept = sector_weight >= TOL.prob_floor
        if not kept.any():
            continue
        weights[~kept] = 0.0
        total_weight += np.where(kept, sector_weight, 0.0)
        jz_vals = (ks[:, None] - np.arange(n_a + 1)) - (n - n_a) / 2.0  # J_z^B eigenvalue of |k - k_A>_{N_B}
        first = weights * jz_vals
        second = weights * jz_vals**2
        m1_red += first.sum(axis=1)
        m2_red += second.sum(axis=1)

        # J_x^A readout: outcome a has weight sum_j |<a|j>|^2 w_j (quarter-turn
        # overlap); conditional states stay pure.  One vector-matrix product
        # per k keeps each row independent of the other ks requested.
        w = np.asarray(wigner_rotation_matrix(n_a, math.pi / 2.0))
        probs_x, m1, m2 = (np.stack([weights, first, second])[..., None, :] @ (w * w))[..., 0, :]
        live = probs_x > TOL.prob_floor
        spread = np.where(live, m2 - m1**2 / np.where(live, probs_x, 1.0), 0.0)  # p(a) Var[J_z^B] per outcome
        worst = float(spread.min(initial=0.0))
        if worst < -1e-12:
            raise NumericError(f"conditional variance came out {worst:.3e}; inputs are inconsistent")
        cond_qfi += 4.0 * np.maximum(spread, 0.0).sum(axis=1)
    off = np.abs(total_weight - 1.0) > 1e-9
    if off.any():
        raise ValidationError(f"sector weights sum to {total_weight[off][0]}, not 1")
    var_red = m2_red - m1_red**2
    # cond_var = 0: the J_z^A readout leaves J_z^B eigenstates.  F_Q[rho_B] = 0: Bob's reduced
    # state and J_z^B are both diagonal in his (N_B, k_B) basis, so they commute.
    return [witness_report(cq, "Jx", 0.0, "Jz", (0.0, v)) for cq, v in zip(cond_qfi.tolist(), var_red.tolist())]


def split_dicke_partition_rows(n: int, p: float, k_values):
    header = [
        "k",
        "cond_var",
        "cond_var_ref",
        "cond_qfi",
        "var_reduced",
        "var_reduced_ref",
        "qfi_reduced",
        "qfi_reduced_ref",
    ]
    ks = [int(k) for k in k_values]
    return header, [
        [k, q.cond_var, 0.0, q.cond_qfi, q.var_reduced, n / 4.0 * p * (1.0 - p), q.qfi_reduced, 0.0]
        for k, q in zip(ks, split_dicke_partition_table(n, p, ks))
    ]


# ---------------------------------------------------------------------------
# Hybrid cat table
# ---------------------------------------------------------------------------

def cat_rows(alphas):
    alphas = [float(a) for a in alphas]
    top = max(alphas, default=0.0)
    # the cutoff exceeds alpha^2, the mean photon number, so a larger alpha^2 is over the limit without its tail sum
    if top * top > MAX_FOCK_CUTOFF or default_fock_cutoff(top) > MAX_FOCK_CUTOFF:
        raise ValidationError(f"alpha = {top:g} needs a Fock cutoff over the limit MAX_FOCK_CUTOFF = {MAX_FOCK_CUTOFF}")
    header = [
        "alpha",
        "cutoff",
        "cond_qfi_x",
        "cond_qfi_x_ref",
        "cond_var_x",
        "cond_var_x_ref",
        "cond_var_p",
        "cond_var_p_ref",
        "reid_lower_bound",
    ]

    def one(alpha: float):
        asm = cat_assemblage(alpha)
        cutoff = asm.d_b
        mode = fock_space(cutoff)
        report = steering_witness(asm, mode.x)
        cv_p, _ = conditional_variance(asm, mode.p)
        return [
            alpha,
            cutoff,
            report.cond_qfi,
            4.0 * (2.0 * alpha**2 + 0.5),
            report.cond_var,
            0.5,
            cv_p,
            0.5 - 2.0 * alpha**2 * math.exp(-4.0 * alpha**2),
            1.0 / cv_p,
        ]

    return header, parallel_map(one, alphas)


# ---------------------------------------------------------------------------
# Pure-state quantifier tables (d = 3 simplex grid)
# ---------------------------------------------------------------------------

def quantify_rows(step: float = 0.01):
    """s_max and s_avg/8 over the d = 3 simplex grid of spacing ``step``, evaluated as one stack."""
    if not 0.0 < step <= 1.0:
        raise ValidationError(f"quantify step must lie in (0, 1], got {step}")
    # counted in floats, so a step so small that 1/step overflows is rejected here too
    _check_limit((1.0 / step + 1.0) * (1.0 / step + 2.0) / 2.0, MAX_QUANTIFY_POINTS, "quantify grid points", "MAX_QUANTIFY_POINTS")
    steps = int(round(1.0 / step))
    if abs(steps * step - 1.0) > 1e-9:
        raise ValidationError(f"quantify step must divide 1 so the grid stays on the simplex, got {step}")
    header = ["x", "y", "s_max", "s_avg_scaled"]
    i, j = np.array([(i, j) for i in range(steps + 1) for j in range(steps + 1 - i)]).T
    x, y = i * step, j * step
    spectra = np.stack([x, y, np.maximum(1.0 - x - y, 0.0)], axis=1)
    spectra = spectra / spectra.sum(axis=1, keepdims=True)
    columns = (x, y, s_max_pure(spectra), s_avg_pure(spectra) / 8.0)
    return header, [list(row) for row in zip(*(c.tolist() for c in columns))]


# ---------------------------------------------------------------------------
# Multi-generator table
# ---------------------------------------------------------------------------

def multigen_rows(d_values):
    header = ["d", "qfi_sum", "qfi_sum_ref", "lhs_bound", "violation"]

    def one(d: int):
        asm, _ = maximally_entangled_assemblage(d)
        value, bound = multi_generator_sum(asm, gellmann_basis(d))
        ref = 4.0 * (d - 1) + 4.0 * (1.0 - 1.0 / d)
        return [d, value, ref, bound, int(value > bound + TOL.witness)]

    d_values = [int(d) for d in d_values]
    _check_limit(max(d_values, default=0), MAX_MULTIGEN_D, "multigen d", "MAX_MULTIGEN_D")
    return header, parallel_map(one, d_values)


# ---------------------------------------------------------------------------
# Estimator experiment (Bell-state strategy)
# ---------------------------------------------------------------------------

def estimate_run(theta: float = 0.01, shots: int = 10_000, reps: int = 200, seed: int = 0):
    """Canonical Bell-state estimator run: H = sigma_z/2 on Bob.

    Bob's reduced state is maximally mixed, so a fixed observable has no
    phase response; he flips the sign of sigma_y with Alice's sigma_x
    outcome, which restores unit response on each steered branch.
    """
    _check_limit(shots, MAX_ESTIMATE_SHOTS, "estimate shots", "MAX_ESTIMATE_SHOTS")
    _check_limit(reps, MAX_ESTIMATE_REPS, "estimate reps", "MAX_ESTIMATE_REPS")
    from .sampling import epr_product_check  # only this command samples

    asm = bell_assemblage()
    paulis = [g * math.sqrt(2.0) for g in gellmann_basis(2).generators]
    h = paulis[2] / 2.0
    m = [paulis[1], -paulis[1]]
    check = epr_product_check(
        asm, h, m, theta_true=theta, n=shots, reps=reps, seed=seed, theta_setting="sx"
    )
    return check
