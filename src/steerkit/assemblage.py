"""Assemblages, conditional variance/QFI over settings, and steering witnesses.

An assemblage collects, per measurement setting of Alice, the outcome
probabilities together with Bob's conditional states.  Each conditional state
is stored once in spectral form (``linalg.Spectrum``, checked by
``metrology.as_state``).  A global state V diag(lam) V^dag + mu (I - V V^dag)
is conditioned through its factor V sqrt(lam - mu): each outcome's block is
G G^dag plus the floor mu tr(E_a), with G = K_a^dag V sqrt(lam - mu) for the
POVM factor K_a of E_a = K_a K_a^dag, and its spectrum comes from G, a
d_B x (k_a r) matrix, so neither the pure nor the white-noise GHZ state builds
a d_B x d_B matrix.  Bob's reduced state comes the same way from the factor F
whose columns are sqrt(p_a (lam_i - mu_a)) v_i, plus the summed floors, and
no-signalling compares two such marginals through the R factor of a QR of
their stacked factors.  A diagonal generator (collective J_z) is passed as its
real diagonal, so the GHZ witness path holds nothing of size d_B x d_B.

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
    commutator,
    dagger,
    factor_spectrum,
    max_abs_by_rows,
    qr_r_by_rows,
    require_hermitian,
)
from .metrology import as_state, expectation, qfi, variance
from .states import BipartitePureState


def _stacked(weights, states, rows: slice = slice(None)) -> tuple[np.ndarray, float]:
    """(F, mu) with F F^dag + mu I = sum_j w_j rho_j, or (F[rows], mu), for weights w_j and spectra rho_j.

    F stacks the columns sqrt(w_j (lam_i - mu_j)) v_i and mu = sum_j w_j mu_j.
    A weight just below 0 (a probability ``make_assemblage`` let through) counts as 0.
    """
    weights = np.maximum(weights, 0.0)
    v = np.concatenate([st.eigenvectors[rows] for st in states], axis=1)
    w = np.concatenate([p * (st.eigenvalues - st.floor) for p, st in zip(weights, states)])
    return v * np.sqrt(w), float(weights @ [st.floor for st in states])


def _block(g: np.ndarray, mu: float) -> tuple[float, Spectrum]:
    """(p, spectrum) of the sub-normalized block G G^dag + mu I, with p = ||G||_F^2 + mu d_B its trace."""
    return float(np.vdot(g, g).real) + mu * len(g), factor_spectrum(g, mu)


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

    def factor(self, rows: slice = slice(None)) -> tuple[np.ndarray, float]:
        """(F, mu) with F F^dag + mu I = sum_a p_a rho_a, or (F[rows], mu) (``_stacked``)."""
        return _stacked(self.probabilities, self.states, rows)


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

    def reduced_spectrum(self) -> Spectrum:
        """Bob's reduced state above its floor, from the first setting's factor (``factor_spectrum``)."""
        return factor_spectrum(*self.settings[0].factor())


def _marginal_deviation(rec0: SettingRecord, rec1: SettingRecord, d_b: int) -> float:
    """Deviation of D = (F_1 F_1^dag + mu_1 I) - (F_0 F_0^dag + mu_0 I) from 0, without forming D.

    F_X, mu_X are the records' ``factor``.  With k = k_0 + k_1 columns below
    d_B, the QR [F_0, F_1] = Q [R_0, R_1] gives
    ||D||_F^2 = ||R_1 R_1^dag - R_0 R_0^dag + delta I_k||_F^2 + delta^2 (d_B - k),
    delta = mu_1 - mu_0, in O(d_B k^2), with R taken one block of rows at a
    time (``qr_r_by_rows``).  The Frobenius norm bounds the max-abs entry
    from above, so when it is within ``TOL.no_signal`` it is returned.
    Otherwise, and whenever k >= d_B, the max-abs entry of D, one block of
    rows at a time, gives the verdict: either way a deviation is above the
    tolerance exactly when D's max-abs entry is.
    """
    (f0, mu0), (f1, mu1) = rec0.factor(slice(0)), rec1.factor(slice(0))  # no rows: the widths and the floors
    k0, k, delta = f0.shape[1], f0.shape[1] + f1.shape[1], mu1 - mu0
    if k < d_b:
        r = qr_r_by_rows(
            lambda lo, hi: np.concatenate([rec0.factor(slice(lo, hi))[0], rec1.factor(slice(lo, hi))[0]], axis=1),
            d_b,
            k,
        )
        inside = r[:, k0:] @ dagger(r[:, k0:]) - r[:, :k0] @ dagger(r[:, :k0]) + delta * np.eye(k)
        frob = float(np.sqrt(np.vdot(inside, inside).real + delta**2 * (d_b - k)))
        if frob <= TOL.no_signal:
            return frob
    f0, f1 = rec0.factor()[0], rec1.factor()[0]

    def rows(lo, hi):
        diff = f1[lo:hi] @ dagger(f1) - f0[lo:hi] @ dagger(f0)
        i = np.arange(hi - lo)
        diff[i, lo + i] += delta
        return diff

    return max_abs_by_rows(rows, d_b, d_b)


def make_assemblage(settings, d_b: int) -> Assemblage:
    """Validate probabilities, outcome labels, conditional states and no-signalling.

    Records without outcome labels get their positions "0", "1", ... as
    labels.  Conditional states go through ``as_state``: amplitude vectors
    and density matrices are checked and diagonalised there, and spectral
    states are checked as they are.
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
        for rec in recs[1:]:
            dev = _marginal_deviation(recs[0], rec, out.d_b)
            if dev > TOL.no_signal:
                raise ValidationError(
                    f"no-signalling violated: marginal of {rec.label!r} deviates from "
                    f"{recs[0].label!r} by {dev:.3e} (max-abs)"
                )
    return out


def _setting(label, outcome_labels, weighted) -> SettingRecord:
    """Condition on each outcome of one setting, keeping the survivors' labels.

    ``weighted`` holds (p(a), block) per outcome, the block being the
    ``Spectrum`` of the sub-normalized p rho_a (``_block``).  Outcomes with p
    below ``TOL.prob_floor`` are dropped; the others keep their own label and
    are checked at block scale by ``as_state``.
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


def _conditioned(rows, f: np.ndarray, d_b: int, floor: float):
    """(p(a), block) of one outcome, for rho_AB = F F^dag + floor I with F of shape (d_A, d_B * r).

    ``rows`` is K^dag for the outcome's effect E = K K^dag (``POVM.factors``).
    tr_A[(E (x) 1) rho_AB] = G G^dag + floor tr(E) I, where G = K^dag F with
    its columns regrouped to d_B rows, and p(a) = ||G||_F^2 + floor tr(E) d_B
    (``_block``).
    """
    g = rows @ f
    # one (d_B, r) block per column of K, side by side
    g = np.moveaxis(g.reshape(len(g), d_b, f.shape[1] // d_b), 0, 1).reshape(d_b, -1)
    return _block(g, floor * float(np.vdot(rows, rows).real))


def assemblage_from_state(rho_ab, dims: tuple[int, int], settings) -> Assemblage:
    """Conditional states tr_A[(E_a (x) 1) rho] / p(a) for each labelled POVM setting.

    ``rho_ab`` is a density matrix or a ``Spectrum`` (taken through
    ``as_state``); ``settings`` holds (label, POVM) pairs.  A dense rho_AB
    gets one ``eigh``; then each outcome conditions the factor
    V sqrt(lam - floor) of rho_AB and inherits floor tr(E_a) on every
    direction of Bob's space, so a state of rank r conditions on d_B x r
    matrices.  Outcomes keep their POVM labels.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    st = as_state(rho_ab, name="rho_AB")
    if st.dim != d_a * d_b:
        raise ValidationError(f"rho_AB dimension {st.dim} != {d_a} * {d_b}")
    f = (st.eigenvectors * np.sqrt(st.eigenvalues - st.floor)).reshape(d_a, -1)
    recs = []
    for label, povm in settings:
        if povm.dim != d_a:
            raise ValidationError(f"setting {label!r} acts on dimension {povm.dim}, Alice has {d_a}")
        weighted = (_conditioned(dagger(k), f, d_b, st.floor) for k in povm.factors)
        recs.append(_setting(label, povm.labels, weighted))
    return make_assemblage(recs, d_b)


def assemblage_from_pure_state(state: BipartitePureState, settings) -> Assemblage:
    """``assemblage_from_state`` on the rank-1 state |psi><psi|, given as its ``Spectrum``."""
    return assemblage_from_state(Spectrum(np.ones(1), state.matrix.reshape(-1, 1)), state.dims, settings)


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
    """A(a, X) = sum_lambda p(a|X,lambda) p(lambda) sigma_lambda; outcome a is labelled "a".

    Each sigma_lambda goes through ``as_state``; each outcome's block is the ``_stacked`` factor of the weighted spectra.
    """
    w = np.asarray(model.weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty vector")
    if float(w.min()) < 0 or abs(float(w.sum()) - 1.0) > TOL.weight_sum:
        raise ValidationError(f"weights must form a distribution, sum = {w.sum():.15f}")
    sigmas = [as_state(s, name=f"local state {i}") for i, s in enumerate(model.local_states)]
    if len(sigmas) != w.size:
        raise ValidationError("weights and local states differ in length")
    d_b = sigmas[0].dim
    if any(st.dim != d_b for st in sigmas):
        raise ValidationError(f"local states differ in dimension: {[st.dim for st in sigmas]}")
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
        weighted = (_block(*_stacked(r[a] * w, sigmas)) for a in range(r.shape[0]))
        recs.append(_setting(label, [str(a) for a in range(r.shape[0])], weighted))
    if not recs:
        raise ValidationError("LHS model defines no settings")
    return make_assemblage(recs, d_b)


def _average(rec: SettingRecord, functional, h: np.ndarray):
    """sum_a p(a|X) functional(rho_a, H): a float for one operator, an n x n matrix for a stack (n, d, d)."""
    total = sum(p * functional(st, h) for p, st in zip(rec.probabilities, rec.states))
    return total if np.ndim(total) else float(total)


def setting_average_variance(rec: SettingRecord, h: np.ndarray):
    """sum_a p(a|X) Var[rho_a, H], or the averaged covariance matrix V_X of a stack of observables."""
    return _average(rec, variance, h)


def setting_average_qfi(rec: SettingRecord, h: np.ndarray):
    """sum_a p(a|X) F_Q[rho_a, H], or the averaged QFI matrix Q_X of a stack of generators."""
    return _average(rec, qfi, h)


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
    spectrum (``Assemblage.reduced_spectrum``).  Every report is checked
    against the sandwich F_Q[rho_B] <= cond_qfi <= 4 Var[rho_B] and
    F_Q[rho_B] <= 4 cond_var <= 4 Var[rho_B], each side within
    ``TOL.sandwich`` * max(1, |value|); a violation (or a NaN) raises
    ``NumericError``.
    """
    op = require_hermitian(h, name="H")
    cq, argmax = _best_setting(assemblage, op, setting_average_qfi, max)
    cv, argmin = _best_setting(assemblage, op, setting_average_variance, min)
    delta = cq / 4.0 - cv
    reduced = assemblage.reduced_spectrum()
    q_red, v_red = qfi(reduced, op), variance(reduced, op)
    for (low_name, low), (high_name, high) in (
        (("F_Q[rho_B]", q_red), ("cond_qfi", cq)),
        (("cond_qfi", cq), ("4 Var[rho_B]", 4.0 * v_red)),
        (("F_Q[rho_B]", q_red), ("4 cond_var", 4.0 * cv)),
        (("4 cond_var", 4.0 * cv), ("4 Var[rho_B]", 4.0 * v_red)),
    ):
        if not low - high <= TOL.sandwich * max(1.0, abs(low), abs(high)):
            raise NumericError(f"sandwich bound violated: {low_name} = {low!r} > {high_name} = {high!r}")
    return WitnessReport(
        cond_qfi=cq,
        cond_var=cv,
        delta=delta,
        qfi_reduced=q_red,
        var_reduced=v_red,
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
    comm_sq = expectation(assemblage.reduced_spectrum(), commutator(h, m)) ** 2
    rhs = comm_sq / 4.0
    lhs = cv_h * cv_m
    if cv_m > 1e-14:
        cq_h, _ = _best_setting(assemblage, h, setting_average_qfi, max)
        if comm_sq / cv_m > cq_h + TOL.witness:
            raise NumericError(
                "commutator lower bound exceeded the conditional QFI; numerics are inconsistent"
            )
    return lhs, rhs

