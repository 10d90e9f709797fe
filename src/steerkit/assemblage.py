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

from dataclasses import dataclass, replace

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
    """Validate probabilities, outcome and setting labels, conditional states and no-signalling.

    An assemblage needs at least one setting.  Records without outcome
    labels get their positions "0", "1", ... as labels.  Conditional states
    go through ``as_state``, the one place they are checked: amplitude
    vectors and density matrices are checked and diagonalised there, and
    spectral states are checked as they are.
    """
    recs = []
    for rec in settings:
        probs = np.asarray(rec.probabilities, dtype=float)
        if len(rec.states) != len(probs) or len(rec.states) == 0:
            raise ValidationError(f"setting {rec.label!r}: outcome count mismatch or empty")
        outcomes = tuple(str(o) for o in rec.outcomes) or tuple(str(i) for i in range(len(rec.states)))
        if len(outcomes) != len(rec.states) or len(set(outcomes)) != len(outcomes):
            raise ValidationError(f"setting {rec.label!r}: need one distinct label per outcome, got {outcomes}")
        if not float(probs.min()) >= -TOL.prob_floor:
            raise ValidationError(f"setting {rec.label!r} has a negative or NaN probability")
        dev = abs(float(probs.sum()) - 1.0)
        if not dev <= TOL.prob_sum:
            raise ValidationError(f"setting {rec.label!r}: probabilities sum to {probs.sum():.12f}")
        states = tuple(
            as_state(st, name=f"conditional state {rec.label}/{lab}") for lab, st in zip(outcomes, rec.states)
        )
        for lab, st in zip(outcomes, states):
            if st.dim != d_b:
                raise ValidationError(f"setting {rec.label!r}, outcome {lab}: dimension {st.dim} != {d_b}")
        recs.append(replace(rec, probabilities=probs, states=states, outcomes=outcomes))
    if not recs:
        raise ValidationError("an assemblage needs at least one setting")
    out = Assemblage(d_b=int(d_b), settings=tuple(recs))
    if len(set(out.labels)) != len(recs):
        raise ValidationError(f"need one distinct label per setting, got {out.labels}")
    for rec in recs[1:]:
        dev = _marginal_deviation(recs[0], rec, out.d_b)
        if not dev <= TOL.no_signal:  # a NaN deviation fails too
            raise ValidationError(
                f"no-signalling violated: marginal of {rec.label!r} deviates from "
                f"{recs[0].label!r} by {dev:.3e} (max-abs)"
            )
    return out


def _setting(label, outcome_labels, blocks) -> SettingRecord:
    """Condition on each outcome of one setting, keeping the survivors' labels.

    ``blocks`` holds (G, mu) per outcome, the sub-normalized
    p rho_a = G G^dag + mu I, whose trace p = ||G||_F^2 + mu d_B is the
    outcome's probability.  Outcomes with p below ``TOL.prob_floor`` are
    dropped before any SVD; the others keep their own label, and rho_a is
    their ``factor_spectrum`` divided by p, checked by ``make_assemblage``.
    """
    probs, states, kept = [], [], []
    for lab, (g, mu) in zip(outcome_labels, blocks):
        p = float(np.vdot(g, g).real) + mu * len(g)
        if p < TOL.prob_floor:
            continue
        st = factor_spectrum(g, mu)
        states.append(Spectrum(st.eigenvalues / p, st.eigenvectors, mu / p))
        probs.append(p)
        kept.append(str(lab))
    return SettingRecord(
        label=str(label), probabilities=np.asarray(probs), states=tuple(states), outcomes=tuple(kept)
    )


def assemblage_from_state(rho_ab, dims: tuple[int, int], settings) -> Assemblage:
    """Conditional states tr_A[(E_a (x) 1) rho] / p(a) for each labelled POVM setting.

    ``rho_ab`` is a density matrix or a ``Spectrum`` (taken through
    ``as_state``); ``settings`` holds (label, POVM) pairs.  A dense rho_AB
    gets one ``eigh``.  Its factor F = V sqrt(lam - floor), as d_A rows, is
    multiplied once per setting by the stacked K_a^dag of the POVM factors
    (E_a = K_a K_a^dag).  Outcome a's rows G_a of that product, regrouped to
    d_B rows, give tr_A[(E_a (x) 1) rho_AB] = G_a G_a^dag + floor tr(E_a) I
    (``_setting``), so a state of rank r conditions on d_B x k_a r matrices.
    Outcomes keep their POVM labels.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    st = as_state(rho_ab, name="rho_AB")
    if st.dim != d_a * d_b:
        raise ValidationError(f"rho_AB dimension {st.dim} != {d_a} * {d_b}")
    f = (st.eigenvectors * np.sqrt(st.eigenvalues - st.floor)).reshape(d_a, -1)
    r = f.shape[1] // d_b
    recs = []
    for label, povm in settings:
        if povm.dim != d_a:
            raise ValidationError(f"setting {label!r} acts on dimension {povm.dim}, Alice has {d_a}")
        g = dagger(np.concatenate(povm.factors, axis=1)) @ f  # K^dag F for every outcome at once
        ends = np.cumsum([k.shape[1] for k in povm.factors])[:-1]
        blocks = (  # each outcome's rows of G, one (d_B, r) block per column of K side by side
            (np.moveaxis(rows.reshape(-1, d_b, r), 0, 1).reshape(d_b, -1), st.floor * float(np.vdot(k, k).real))
            for k, rows in zip(povm.factors, np.split(g, ends))
        )
        recs.append(_setting(label, povm.labels, blocks))
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
    responses: dict[str, np.ndarray]


def assemblage_from_lhs(model: LHSModel) -> Assemblage:
    """A(a, X) = sum_lambda p(a|X,lambda) p(lambda) sigma_lambda; outcome a is labelled "a".

    Each sigma_lambda goes through ``as_state``; each outcome's block is the ``_stacked`` factor of the weighted spectra.
    """
    w = np.asarray(model.weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty vector")
    if not (float(w.min()) >= 0 and abs(float(w.sum()) - 1.0) <= TOL.weight_sum):  # a NaN fails too
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
        if not float(r.min()) >= 0:
            raise ValidationError(f"response for {label!r} has negative or NaN entries")
        col_dev = float(np.max(np.abs(r.sum(axis=0) - 1.0)))
        if not col_dev <= TOL.weight_sum:
            raise ValidationError(f"response columns for {label!r} sum to 1 +/- {col_dev:.3e}")
        recs.append(_setting(label, map(str, range(len(r))), (_stacked(row * w, sigmas) for row in r)))
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


def witness_report(cond_qfi: float, argmax: str, cond_var: float, argmin: str, reduced, marginal=None) -> WitnessReport:
    """The one constructor of ``WitnessReport``: delta, steering, and the sandwich bounds checked.

    ``reduced`` is (F_Q[rho_B], Var[rho_B]) of Bob's marginal.  F_Q[rho_B] <=
    cond_qfi <= 4 Var[rho_B] and F_Q[rho_B] <= 4 cond_var <= 4 Var[rho_B] must
    hold, each side within ``TOL.sandwich`` * max(1, |value|).  Settings may
    disagree on the marginal by up to ``TOL.no_signal``, enough to tip a tight
    bound, so a bound that fails is checked again against ``marginal(label)``
    when given: the (F_Q, Var) of the marginal of the setting it concerns
    (argmax for cond_qfi, argmin for cond_var).  A bound that fails there too,
    or a NaN, raises ``NumericError``.
    """

    def values(q_red, v_red):
        return {"cond_qfi": cond_qfi, "4 cond_var": 4.0 * cond_var, "F_Q[rho_B]": q_red, "4 Var[rho_B]": 4.0 * v_red}

    def holds(vals, low, high):
        return vals[low] - vals[high] <= TOL.sandwich * max(1.0, abs(vals[low]), abs(vals[high]))

    first = values(*reduced)
    for label, middle in ((argmax, "cond_qfi"), (argmin, "4 cond_var")):
        for low, high in (("F_Q[rho_B]", middle), (middle, "4 Var[rho_B]")):
            vals = first
            if not holds(vals, low, high) and marginal is not None:
                vals = values(*marginal(label))
            if not holds(vals, low, high):
                raise NumericError(f"sandwich bound violated: {low} = {vals[low]!r} > {high} = {vals[high]!r}")
    delta = cond_qfi / 4.0 - cond_var
    return WitnessReport(
        cond_qfi=cond_qfi, cond_var=cond_var, delta=delta, qfi_reduced=reduced[0], var_reduced=reduced[1],
        argmax_setting=argmax, argmin_setting=argmin, steering=bool(delta > TOL.witness),
    )


def steering_witness(assemblage: Assemblage, h) -> WitnessReport:
    """Evaluate the conditional QFI/variance gap; delta > tol flags steering.

    H is validated once here.  The reduced-state values come from the first
    setting's marginal (``Assemblage.reduced_spectrum``), and a sandwich bound
    that fails against it is checked again against the argmax's or argmin's
    own (``witness_report``).
    """
    return _witness(assemblage, require_hermitian(h, name="H"), assemblage.reduced_spectrum())


def _witness(assemblage: Assemblage, op: np.ndarray, reduced: Spectrum) -> WitnessReport:
    """``steering_witness`` for a validated H and Bob's reduced spectrum ``reduced``."""
    cq, argmax = _best_setting(assemblage, op, setting_average_qfi, max)
    cv, argmin = _best_setting(assemblage, op, setting_average_variance, min)

    def marginal(label):
        st = factor_spectrum(*assemblage.setting(label).factor())
        return qfi(st, op), variance(st, op)

    return witness_report(cq, argmax, cv, argmin, (qfi(reduced, op), variance(reduced, op)), marginal)


def reid_witness(assemblage: Assemblage, h, m) -> tuple[float, float]:
    """Inference-variance product vs the commutator bound |<[H, M]>|^2 / 4.

    Returns (lhs, rhs); lhs < rhs flags a Reid EPR paradox.  cond_var(H) and
    cond_qfi(H) are read off the steering witness's report, which shares
    Bob's reduced spectrum with the commutator.  Also verifies the
    moment-bound chain |<[H,M]>|^2 / cond_var(M) <= cond_qfi(H) as an
    internal consistency check.
    """
    h = require_hermitian(h, name="H")
    m = require_hermitian(m, name="M")
    reduced = assemblage.reduced_spectrum()
    report = _witness(assemblage, h, reduced)
    cv_m, _ = _best_setting(assemblage, m, setting_average_variance, min)
    # <[H, M]> = sum_i lam_i <v_i|[H, M]|v_i> on Bob's reduced spectrum; -i[H, M] is Hermitian
    comm_sq = expectation(reduced, commutator(h, m)) ** 2
    if cv_m > 1e-14 and comm_sq / cv_m > report.cond_qfi + TOL.witness:
        raise NumericError("commutator lower bound exceeded the conditional QFI; numerics are inconsistent")
    return report.cond_var * cv_m, comm_sq / 4.0
