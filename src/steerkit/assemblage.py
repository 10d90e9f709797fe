"""Assemblages, conditional variance/QFI over settings, and steering witnesses.

An assemblage collects, per measurement setting of Alice, the outcome
probabilities together with Bob's conditional states.  Each conditional state
is stored once in spectral form (``linalg.Spectrum``, built by
``metrology.as_state``): a pure state is rank 1, and a mixed block is
diagonalised once, when it is conditioned on.  Bob's reduced state comes from
the factor F whose columns are sqrt(p_a lam_i) v_i.

The max/min over settings ranges over the finitely many settings supplied by
the caller; analytically optimal settings for the worked examples are known
and included in their candidate lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    TOL,
    NumericError,
    Spectrum,
    ValidationError,
    dagger,
    hermitian_eig,
    require_density_matrix,
    require_hermitian,
)
from .metrology import POVM, as_state, cfi, expectation, qfi, variance
from .states import BipartitePureState


@dataclass(frozen=True)
class SettingRecord:
    """One measurement setting: outcome probabilities and conditional states.

    ``outcomes`` labels each kept outcome, so outcomes dropped below
    ``TOL.prob_floor`` leave the others identifiable; ``make_assemblage``
    fills missing labels with the positions "0", "1", ...
    """

    label: str
    probabilities: np.ndarray
    states: tuple[Spectrum, ...]
    outcomes: tuple[str, ...] = ()

    @property
    def n_outcomes(self) -> int:
        return len(self.states)

    def state_matrix(self, i: int) -> np.ndarray:
        return self.states[i].reconstruct()

    def factor(self) -> np.ndarray:
        """F with F F^dag = sum_a p_a rho_a: the columns sqrt(p_a lam_i) v_i of every outcome.

        A probability that ``make_assemblage`` let through just below 0 counts as 0.
        """
        return np.concatenate(
            [st.eigenvectors * np.sqrt(max(p, 0.0) * st.eigenvalues) for p, st in zip(self.probabilities, self.states)],
            axis=1,
        )

    def reduced(self) -> np.ndarray:
        f = self.factor()
        return f @ dagger(f)


@dataclass(frozen=True)
class Assemblage:
    """No-signalling collection of setting records over Bob's space."""

    d_b: int
    settings: tuple[SettingRecord, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.settings)

    def setting(self, label: str) -> SettingRecord:
        for rec in self.settings:
            if rec.label == label:
                return rec
        raise ValidationError(f"no setting labelled {label!r}; have {self.labels}")

    def reduced_state(self) -> np.ndarray:
        return self.settings[0].reduced()

    def reduced_spectrum(self) -> Spectrum:
        """Bob's reduced state on its support: a thin SVD of F when F has fewer than d_B columns, else eigh."""
        f = self.settings[0].factor()
        if f.shape[1] < self.d_b:
            u, s, _ = np.linalg.svd(f, full_matrices=False)
            return Spectrum(s**2, u).support()
        return hermitian_eig(f @ dagger(f)).support()


def make_assemblage(settings, d_b: int) -> Assemblage:
    """Validate probabilities, outcome labels, conditional states and no-signalling.

    Records without outcome labels get their positions "0", "1", ... as
    labels.  Conditional states go through ``as_state``: amplitude vectors
    and density matrices are checked and diagonalised there, and spectral
    states, which the constructors build and check at block scale, are
    taken as they are.
    """
    recs = []
    for rec in settings:
        probs = np.asarray(rec.probabilities, dtype=float)
        if len(rec.states) != len(probs) or len(rec.states) == 0:
            raise ValidationError(f"setting {rec.label!r}: outcome count mismatch or empty")
        outcomes = tuple(str(o) for o in rec.outcomes) or tuple(str(i) for i in range(len(rec.states)))
        if len(outcomes) != len(rec.states) or len(set(outcomes)) != len(outcomes):
            raise ValidationError(f"setting {rec.label!r}: need one distinct label per outcome, got {outcomes}")
        if float(probs.min()) < -TOL.prob_floor:
            raise ValidationError(f"setting {rec.label!r} has negative probability")
        dev = abs(float(probs.sum()) - 1.0)
        if dev > TOL.prob_sum:
            raise ValidationError(f"setting {rec.label!r}: probabilities sum to {probs.sum():.12f}")
        states = tuple(
            as_state(st, name=f"conditional state {rec.label}/{lab}") for lab, st in zip(outcomes, rec.states)
        )
        for lab, st in zip(outcomes, states):
            if st.dim != d_b:
                raise ValidationError(f"setting {rec.label!r}, outcome {lab}: dimension {st.dim} != {d_b}")
        recs.append(replace(rec, probabilities=probs, states=states, outcomes=outcomes))
    out = Assemblage(d_b=int(d_b), settings=tuple(recs))
    if len(recs) > 1:
        first = recs[0].reduced()
        for rec in recs[1:]:
            dev = float(np.max(np.abs(rec.reduced() - first)))
            if dev > TOL.no_signal:
                raise ValidationError(
                    f"no-signalling violated: marginal of {rec.label!r} deviates from "
                    f"{recs[0].label!r} by {dev:.3e} (max-abs)"
                )
    return out


def _traced(blocks):
    """(p, block) pairs of sub-normalized matrices p rho, with p = tr(block)."""
    return ((float(np.trace(block).real), block) for block in blocks)


def _setting(label, outcome_labels, weighted) -> SettingRecord:
    """Condition on each outcome of one setting, keeping the survivors' labels.

    ``weighted`` holds (p(a), block) per outcome, the block being an amplitude
    row sqrt(p) psi_a or a sub-normalized matrix p rho_a.  Outcomes with p
    below ``TOL.prob_floor`` are dropped; the others are checked at block
    scale and diagonalised by ``as_state`` and keep their own label.
    """
    probs, states, kept = [], [], []
    for lab, (p, block) in zip(outcome_labels, weighted):
        if p < TOL.prob_floor:
            continue
        states.append(as_state(block, p, f"conditional state {label}/{lab}"))
        probs.append(p)
        kept.append(str(lab))
    return SettingRecord(
        label=str(label), probabilities=np.asarray(probs), states=tuple(states), outcomes=tuple(kept)
    )


def _labelled(settings):
    """(label, POVM) pairs from a dict or from a sequence of pairs."""
    return settings.items() if isinstance(settings, dict) else settings


def assemblage_from_state(rho_ab, dims: tuple[int, int], settings) -> Assemblage:
    """Conditional states tr_A[(E_a (x) 1) rho] / p(a) for each labelled POVM setting.

    ``settings`` maps labels to POVMs (a dict or (label, POVM) pairs), as in
    ``assemblage_from_pure_state``.  Outcomes keep their POVM labels.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    rho = require_density_matrix(rho_ab, name="rho_AB")
    if rho.shape[0] != d_a * d_b:
        raise ValidationError(f"rho_AB dimension {rho.shape[0]} != {d_a} * {d_b}")
    four = rho.reshape(d_a, d_b, d_a, d_b)
    recs = []
    for label, povm in _labelled(settings):
        if povm.dim != d_a:
            raise ValidationError(f"setting {label!r} acts on dimension {povm.dim}, Alice has {d_a}")
        blocks = (np.einsum("ij,jbic->bc", eff, four) for eff in povm.effects)
        recs.append(_setting(label, povm.labels, _traced(blocks)))
    return make_assemblage(recs, d_b)


def assemblage_from_pure_state(state: BipartitePureState, settings) -> Assemblage:
    """Fast path for pure global states: conditionals stay amplitude vectors.

    ``settings`` maps labels to POVMs; rank-1 POVMs (``vectors`` present)
    steer into pure conditional states via amplitude contraction, others fall
    back to dense conditional density matrices.  Outcomes keep their POVM
    labels.
    """
    psi = state.matrix
    recs = []
    for label, povm in _labelled(settings):
        if povm.dim != state.d_a:
            raise ValidationError(f"setting {label!r} acts on dimension {povm.dim}, Alice has {state.d_a}")
        if povm.vectors is not None:
            rows = (vec.conj() @ psi for vec in povm.vectors)
            weighted = ((float(np.vdot(row, row).real), row) for row in rows)
        else:
            weighted = _traced(np.einsum("ij,jb,ic->bc", eff, psi, psi.conj()) for eff in povm.effects)
        recs.append(_setting(label, povm.labels, weighted))
    return make_assemblage(recs, state.d_b)


@dataclass(frozen=True)
class LHSModel:
    """Local-hidden-state model: p(lambda), sigma_lambda, and response p(a|X,lambda).

    ``responses`` maps setting labels to (n_outcomes, n_lambda) stochastic
    matrices whose columns are conditional distributions over outcomes.
    """

    weights: np.ndarray
    local_states: tuple[np.ndarray, ...]
    responses: dict[str, np.ndarray] = field(default_factory=dict)


def assemblage_from_lhs(model: LHSModel) -> Assemblage:
    """A(a, X) = sum_lambda p(a|X,lambda) p(lambda) sigma_lambda; outcome a is labelled "a"."""
    w = np.asarray(model.weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty vector")
    if float(w.min()) < 0 or abs(float(w.sum()) - 1.0) > TOL.weight_sum:
        raise ValidationError(f"weights must form a distribution, sum = {w.sum():.15f}")
    sigmas = [require_density_matrix(s, name=f"local state {i}") for i, s in enumerate(model.local_states)]
    if len(sigmas) != w.size:
        raise ValidationError("weights and local states differ in length")
    d_b = sigmas[0].shape[0]
    recs = []
    for label, resp in model.responses.items():
        r = np.asarray(resp, dtype=float)
        if r.ndim != 2 or r.shape[1] != w.size:
            raise ValidationError(f"response for {label!r} must be (n_outcomes, {w.size})")
        if float(r.min()) < 0:
            raise ValidationError(f"response for {label!r} has negative entries")
        col_dev = float(np.max(np.abs(r.sum(axis=0) - 1.0)))
        if col_dev > TOL.weight_sum:
            raise ValidationError(f"response columns for {label!r} sum to 1 +/- {col_dev:.3e}")
        blocks = (sum(r[a, lam] * w[lam] * sigmas[lam] for lam in range(w.size)) for a in range(r.shape[0]))
        recs.append(_setting(label, [str(a) for a in range(r.shape[0])], _traced(blocks)))
    if not recs:
        raise ValidationError("LHS model defines no settings")
    return make_assemblage(recs, d_b)


def setting_average_variance(rec: SettingRecord, h: np.ndarray) -> float:
    return float(sum(p * variance(st, h) for p, st in zip(rec.probabilities, rec.states)))


def setting_average_qfi(rec: SettingRecord, h: np.ndarray) -> float:
    return float(sum(p * qfi(st, h) for p, st in zip(rec.probabilities, rec.states)))


def _best_setting(assemblage: Assemblage, op: np.ndarray, average, pick) -> tuple[float, str]:
    """Evaluate ``average`` on every setting for an already validated H; ``pick`` (min or max) keeps the first extremum."""
    if not assemblage.settings:
        raise ValidationError("assemblage has no settings")
    return pick(((average(rec, op), rec.label) for rec in assemblage.settings), key=lambda v: v[0])


def conditional_variance(assemblage: Assemblage, h) -> tuple[float, str]:
    """min over settings of sum_a p(a|X) Var[rho_a, H]; first setting wins ties."""
    return _best_setting(assemblage, require_hermitian(h, name="H"), setting_average_variance, min)


def conditional_qfi(assemblage: Assemblage, h) -> tuple[float, str]:
    """max over settings of sum_a p(a|X) F_Q[rho_a, H]; first setting wins ties."""
    return _best_setting(assemblage, require_hermitian(h, name="H"), setting_average_qfi, max)


@dataclass(frozen=True)
class WitnessReport:
    """All witness quantities for one (assemblage, generator) configuration."""

    cond_qfi: float
    cond_var: float
    delta: float
    qfi_reduced: float
    var_reduced: float
    argmax_setting: str
    argmin_setting: str
    steering: bool


def steering_witness(assemblage: Assemblage, h) -> WitnessReport:
    """Evaluate the conditional QFI/variance gap; delta > tol flags steering.

    H is validated once here; the reduced-state bounds use Bob's reduced
    spectrum (``Assemblage.reduced_spectrum``).
    """
    op = require_hermitian(h, name="H")
    cq, argmax = _best_setting(assemblage, op, setting_average_qfi, max)
    cv, argmin = _best_setting(assemblage, op, setting_average_variance, min)
    delta = cq / 4.0 - cv
    reduced = assemblage.reduced_spectrum()
    return WitnessReport(
        cond_qfi=cq,
        cond_var=cv,
        delta=delta,
        qfi_reduced=qfi(reduced, op),
        var_reduced=variance(reduced, op),
        argmax_setting=argmax,
        argmin_setting=argmin,
        steering=bool(delta > TOL.witness),
    )


def reid_witness(assemblage: Assemblage, h, m) -> tuple[float, float]:
    """Inference-variance product vs the commutator bound |<[H, M]>|^2 / 4.

    Returns (lhs, rhs); lhs < rhs flags a Reid EPR paradox.  Also verifies
    the moment-bound chain |<[H,M]>|^2 / cond_var(M) <= cond_qfi(H) as an
    internal consistency check.
    """
    h = require_hermitian(h, name="H")
    m = require_hermitian(m, name="M")
    cv_h, _ = _best_setting(assemblage, h, setting_average_variance, min)
    cv_m, _ = _best_setting(assemblage, m, setting_average_variance, min)
    # <[H, M]> = sum_i lam_i <v_i|[H, M]|v_i> on Bob's reduced spectrum; -i[H, M] is Hermitian
    comm_sq = expectation(assemblage.reduced_spectrum(), -1j * (h @ m - m @ h)) ** 2
    rhs = comm_sq / 4.0
    lhs = cv_h * cv_m
    if cv_m > 1e-14:
        cq_h, _ = _best_setting(assemblage, h, setting_average_qfi, max)
        if comm_sq / cv_m > cq_h + TOL.witness:
            raise NumericError(
                "commutator lower bound exceeded the conditional QFI; numerics are inconsistent"
            )
    return lhs, rhs


def joint_cfi(assemblage: Assemblage, setting_label: str, povm_b: POVM, h) -> float:
    """Fixed-settings Fisher information sum_a p(a|X) F[povm_B, rho_a, H]."""
    op = require_hermitian(h, name="H")
    rec = assemblage.setting(setting_label)
    total = 0.0
    for p, st in zip(rec.probabilities, rec.states):
        total += p * cfi(povm_b, st, op)
    return total


def bounds_check(report: WitnessReport, tol: float = 1e-9) -> bool:
    """F_Q[rho_B] <= cond_qfi <= 4 Var[rho_B] and the mirrored variance chain."""
    vals = (
        report.qfi_reduced,
        report.cond_qfi,
        4.0 * report.var_reduced,
        4.0 * report.cond_var,
    )
    if not all(np.isfinite(v) for v in vals):
        return False
    ok = report.qfi_reduced <= report.cond_qfi + tol
    ok &= report.cond_qfi <= 4.0 * report.var_reduced + tol
    ok &= report.qfi_reduced <= 4.0 * report.cond_var + tol
    ok &= 4.0 * report.cond_var <= 4.0 * report.var_reduced + tol
    return bool(ok)


def mix_assemblages(first: Assemblage, second: Assemblage, weight: float) -> Assemblage:
    """Classical mixture weight * A1 + (1 - weight) * A2, outcome label by outcome label.

    Each setting's outcomes are matched by label, taken in order of first
    appearance; an outcome present in only one assemblage enters with
    probability 0 from the other.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValidationError(f"weight must be in [0, 1], got {weight}")
    if first.d_b != second.d_b or first.labels != second.labels:
        raise ValidationError("assemblages must share Bob dimension and setting labels")
    recs = []
    for rec1, rec2 in zip(first.settings, second.settings):
        blocks: dict[str, np.ndarray] = {}
        for t, rec in ((weight, rec1), (1.0 - weight, rec2)):
            for i, (lab, p) in enumerate(zip(rec.outcomes, rec.probabilities)):
                blocks[lab] = blocks.get(lab, 0.0) + t * p * rec.state_matrix(i)
        recs.append(_setting(rec1.label, blocks.keys(), _traced(blocks.values())))
    return make_assemblage(recs, first.d_b)
