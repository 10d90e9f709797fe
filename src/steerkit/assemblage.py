"""Assemblages, conditional variance/QFI over settings, and steering witnesses.

An assemblage collects, per measurement setting of Alice, the outcome
probabilities together with Bob's conditional states.  The conditional states
of one setting are stored once as one stacked spectrum (``linalg.Spectrum``
with a leading outcome axis, checked by ``metrology.as_state``), so they are
conditioned, checked and evaluated in one array pass per setting.  A global
state V diag(lam) V^dag + mu (I - V V^dag)
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

from dataclasses import dataclass

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
    stack,
)
from .metrology import as_state, expectation, qfi, variance
from .states import BipartitePureState


def _mixture(weights, states: Spectrum, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(F, mu) with F F^dag + mu I = sum_j w_j rho_j, or (F[rows], mu), for weights w_j and a stack of spectra rho_j.

    F holds the columns sqrt(w_j (lam_i - mu_j)) v_i off the floor, state by
    state, and mu = sum_j w_j mu_j; weights (m, A) give m mixtures.  A weight
    just below 0 (a probability ``make_assemblage`` let through) counts as 0.
    """
    weights = np.maximum(weights, 0.0)
    lam, mu = states.eigenvalues, states.floor
    kept = lam != mu[:, None]  # a stack's padding is left out
    v = states.eigenvectors[:, rows].transpose(1, 0, 2)[:, kept]
    w = (weights[..., :, None] * (lam - mu[:, None]))[..., kept]
    return v * np.sqrt(w)[..., None, :], np.vecdot(weights, mu)


@dataclass(frozen=True)
class SettingRecord:
    """One measurement setting: outcome probabilities and conditional states.

    ``states`` is one stacked ``Spectrum`` with a state per outcome.  Only
    ``make_assemblage`` also takes a record whose states are a sequence, one
    state per outcome, and stacks them; every other reader of a record needs
    the stack.  ``outcomes`` labels each kept outcome, so outcomes dropped
    below ``TOL.prob_floor`` leave the others identifiable; ``make_assemblage``
    fills missing labels with the positions "0", "1", ...
    """

    label: str
    probabilities: np.ndarray
    states: Spectrum
    outcomes: tuple[str, ...] = ()

    @property
    def n_outcomes(self) -> int:
        return len(self.states)

    def factor(self, rows: slice = slice(None)) -> tuple[np.ndarray, float]:
        """(F, mu) with F F^dag + mu I = sum_a p_a rho_a, or (F[rows], mu) (``_mixture``)."""
        f, mu = _mixture(self.probabilities, self.states, rows)
        return f, float(mu)


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


def _marginal_deviations(recs, d_b: int):
    """Deviation of each later setting's marginal from the first's, in order, without forming D.

    For the first record's ``factor`` F_0, mu_0 and a later one's F_1, mu_1,
    D = (F_1 F_1^dag + mu_1 I) - (F_0 F_0^dag + mu_0 I).  With k = k_0 + k_1
    columns below d_B, the QR [F_0, F_1] = Q [R_0, R_1] gives
    ||D||_F^2 = ||R_1 R_1^dag - R_0 R_0^dag + delta I_k||_F^2 + delta^2 (d_B - k),
    delta = mu_1 - mu_0, in O(d_B k^2), with R taken one block of rows at a
    time (``qr_r_by_rows``).  The Frobenius norm bounds the max-abs entry
    from above, so when it is within ``TOL.no_signal`` it is returned.
    Otherwise, and whenever k >= d_B, the max-abs entry of D, one block of
    rows at a time, gives the verdict: either way a deviation is above the
    tolerance exactly when D's max-abs entry is.  F_0's width and floor are
    read once, and all of F_0 is built once, by the first check that needs it.
    """
    rec0 = recs[0]
    head0, mu0 = rec0.factor(slice(0))  # no rows: the width and the floor
    k0, f0 = head0.shape[1], None
    for rec1 in recs[1:]:
        head1, mu1 = rec1.factor(slice(0))
        k, delta = k0 + head1.shape[1], mu1 - mu0
        if k < d_b:
            r = qr_r_by_rows(
                lambda lo, hi: np.concatenate([rec0.factor(slice(lo, hi))[0], rec1.factor(slice(lo, hi))[0]], axis=1),
                d_b,
                k,
            )
            inside = r[:, k0:] @ dagger(r[:, k0:]) - r[:, :k0] @ dagger(r[:, :k0]) + delta * np.eye(k)
            frob = float(np.sqrt(np.vdot(inside, inside).real + delta**2 * (d_b - k)))
            if frob <= TOL.no_signal:
                yield frob
                continue
        if f0 is None:
            f0 = rec0.factor()[0]
        f1 = rec1.factor()[0]

        def rows(lo, hi):
            diff = f1[lo:hi] @ dagger(f1) - f0[lo:hi] @ dagger(f0)
            i = np.arange(hi - lo)
            diff[i, lo + i] += delta
            return diff

        yield max_abs_by_rows(rows, d_b, d_b)


def make_assemblage(settings, d_b: int) -> Assemblage:
    """Validate probabilities, outcome and setting labels, conditional states and no-signalling.

    An assemblage needs at least one setting.  Records without outcome
    labels get their positions "0", "1", ... as labels.  Conditional states
    go through ``as_state``, the one place they are checked: a setting's
    stacked spectrum in one pass, and states given one per outcome one by one
    (amplitude vectors and density matrices are diagonalised there) before
    they are stacked.
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
        names = [f"conditional state {rec.label}/{lab}" for lab in outcomes]
        if isinstance(rec.states, Spectrum):
            states = as_state(rec.states, names)
        else:  # one state per outcome, each checked before the checked states are stacked
            states = [as_state(st, name) for st, name in zip(rec.states, names)]
            for lab, st in zip(outcomes, states):
                if st.dim != d_b:
                    raise ValidationError(f"setting {rec.label!r}, outcome {lab}: dimension {st.dim} != {d_b}")
            states = stack(states)
        if states.dim != d_b:
            raise ValidationError(f"setting {rec.label!r}: dimension {states.dim} != {d_b}")
        recs.append(SettingRecord(rec.label, probs, states, outcomes))
    if not recs:
        raise ValidationError("an assemblage needs at least one setting")
    out = Assemblage(d_b=int(d_b), settings=tuple(recs))
    if len(set(out.labels)) != len(recs):
        raise ValidationError(f"need one distinct label per setting, got {out.labels}")
    for rec, dev in zip(recs[1:], _marginal_deviations(recs, out.d_b)):
        if not dev <= TOL.no_signal:  # a NaN deviation fails too
            raise ValidationError(
                f"no-signalling violated: marginal of {rec.label!r} deviates from "
                f"{recs[0].label!r} by {dev:.3e} (max-abs)"
            )
    return out


def _setting(label, outcome_labels, groups) -> SettingRecord:
    """Condition on every outcome of one setting, keeping the survivors' labels.

    ``groups`` holds (positions, G, mu) per block width: the outcomes'
    positions, the stack (n, d_B, m) of their blocks and their floors (n,).
    Outcome a is the sub-normalized p rho_a = G_a G_a^dag + mu_a I, whose
    trace p = ||G_a||_F^2 + mu_a d_B is its probability.  Outcomes with p
    below ``TOL.prob_floor`` are dropped before the one ``factor_spectrum``
    of each stack; the others keep their own label, and rho_a is its
    spectrum divided by p, checked by ``make_assemblage``.
    """
    parts = []
    for pos, g, mu in groups:
        flat = g.reshape(len(g), -1)
        p = np.vecdot(flat, flat).real + mu * g.shape[1]
        live = ~(p < TOL.prob_floor)
        if not live.all():  # (when every outcome is kept, the blocks are not copied)
            pos, g, mu, p = pos[live], g[live], mu[live], p[live]
        st = factor_spectrum(g, mu)
        parts.append((pos, p, Spectrum(st.eigenvalues / p[:, None], st.eigenvectors, st.floor / p)))
    pos, probs, states = parts[0]
    if len(parts) > 1:  # outcomes of several widths go back to their order
        order = np.argsort(np.concatenate([part[0] for part in parts]), kind="stable")
        pos, probs = (np.concatenate([part[i] for part in parts])[order] for i in (0, 1))
        st = stack([part[2] for part in parts])
        states = Spectrum(st.eigenvalues[order], st.eigenvectors[order], st.floor[order])
    labels = tuple(outcome_labels)
    outcomes = tuple(str(labels[a]) for a in pos)
    return SettingRecord(label=str(label), probabilities=probs, states=states, outcomes=outcomes)


def assemblage_from_state(rho_ab, dims: tuple[int, int], settings) -> Assemblage:
    """Conditional states tr_A[(E_a (x) 1) rho] / p(a) for each labelled POVM setting.

    ``rho_ab`` is a density matrix or a ``Spectrum`` (taken through
    ``as_state``); ``settings`` holds (label, POVM) pairs.  A dense rho_AB
    gets one ``eigh``.  Its factor F = V sqrt(lam - floor), as d_A rows, is
    multiplied once per setting by the stacked K_a^dag of the POVM factors
    (E_a = K_a K_a^dag).  Outcome a's rows G_a of that product, regrouped to
    d_B rows, give tr_A[(E_a (x) 1) rho_AB] = G_a G_a^dag + floor tr(E_a) I
    (``_setting``), so a state of rank r conditions on d_B x k_a r matrices,
    one stack for the outcomes of each rank k_a.  Outcomes keep their POVM labels.
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
        widths = np.array([k.shape[1] for k in povm.factors])
        ends = np.cumsum(widths)
        g = (dagger(np.concatenate(povm.factors, axis=1)) @ f).reshape(ends[-1], d_b, r)  # a (d_B, r) block per column
        groups = []
        for w in sorted(set(widths.tolist())):  # the outcomes of rank k_a = w: their blocks side by side, floors tr(E_a)
            pos = np.flatnonzero(widths == w)
            rows = g
            if len(pos) < len(widths):  # (when every outcome has this rank, the rows are not copied)
                rows = g[(ends[pos, None] - w + np.arange(w)).reshape(-1)]
            blocks = rows.reshape(len(pos), w, d_b, r).transpose(0, 2, 1, 3).reshape(len(pos), d_b, w * r)
            mu = np.zeros(len(pos))
            if st.floor:  # floor tr(E_a), with tr(E_a) = ||K_a||_F^2
                factors = np.stack([povm.factors[a] for a in pos]).reshape(len(pos), -1)
                mu = st.floor * np.vecdot(factors, factors).real
            groups.append((pos, blocks, mu))
        recs.append(_setting(label, povm.labels, groups))
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

    Each sigma_lambda goes through ``as_state``; the outcomes' blocks are ``_mixture`` factors of the weighted spectra.
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
    sigmas = stack(sigmas)
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
        recs.append(_setting(label, map(str, range(len(r))), [(np.arange(len(r)), *_mixture(r * w, sigmas))]))
    return make_assemblage(recs, d_b)


def _average(rec: SettingRecord, functional, h: np.ndarray):
    """sum_a p(a|X) functional(rho_a, H): a float for one operator, an n x n matrix for a stack (n, d, d).

    The functional runs once, on the setting's stack.  The terms are weighted
    in place, as a fresh copy of the n x n matrices costs more than the
    product, and summed left to right.
    """
    values = functional(rec.states, h)
    weights = rec.probabilities.reshape((-1,) + (1,) * (np.ndim(values) - 1))
    total = sum(np.multiply(weights, values, out=values if np.ndim(values) else None))
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
