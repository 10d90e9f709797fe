"""Stochastic validation of the estimator-level claims.

Outcome sampling uses a counter-based Philox generator keyed by an explicit
64-bit seed; repetition r of a run draws from Philox(key=(seed, r)), so
repetitions are reproducible independently of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage, conditional_variance
from .linalg import NumericError, ValidationError, hermitian_eig, require_hermitian, unitary_from_generator
from .metrology import POVM, _outcomes, as_state, expectation, variance

_FD_STEP = 1e-5  # finite-difference step for the derivative cross-check


def _rng(*key_words: int) -> np.random.Generator:
    key = np.zeros(2, dtype=np.uint64)
    for i, word in enumerate(key_words[:2]):
        key[i] = np.uint64(word % (1 << 64))
    return np.random.Generator(np.random.Philox(key=key))


def sample_outcomes(state, povm: POVM, n: int, rng_seed: int) -> np.ndarray:
    """Multinomial outcome counts for measuring ``povm`` on ``state``."""
    probs = np.array([p for *_, p in _outcomes(povm, as_state(state))])
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {probs.sum():.12f}, not 1")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return _rng(int(rng_seed)).multinomial(int(n), probs)


@dataclass(frozen=True)
class SampleRun:
    """One Monte Carlo validation run of the moment-based phase estimator."""

    seed: int
    n_shots: int
    theta_true: float
    estimates: np.ndarray
    empirical_var: float
    predicted_var: float
    derivative: float
    var_m_est: float
    setting: str


def _mean_derivative(rho: np.ndarray, h: np.ndarray, m: np.ndarray) -> float:
    """d<M>_theta/dtheta at theta = 0, analytically and with an FD cross-check."""
    comm = m @ h - h @ m
    analytic = float((-1j * np.trace(rho @ comm)).real)
    u = unitary_from_generator(h, _FD_STEP)
    fwd = float(np.trace((u @ rho @ u.conj().T) @ m).real)
    bwd = float(np.trace((u.conj().T @ rho @ u) @ m).real)
    fd = (fwd - bwd) / (2.0 * _FD_STEP)
    scale = max(abs(analytic), abs(fd), 1.0)
    if abs(analytic - fd) > 1e-6 * scale:
        raise NumericError(
            f"analytic derivative {analytic:.6e} disagrees with finite difference {fd:.6e}"
        )
    return analytic


def moment_estimator_validation(
    assemblage: Assemblage,
    h,
    m,
    theta_true: float = 0.01,
    n: int = 10_000,
    reps: int = 200,
    seed: int = 0,
    setting: str | None = None,
) -> SampleRun:
    """Simulate the calibrated moment estimator for the phase imprinted by H.

    Alice announces the chosen setting's outcome a; Bob measures M (or M_a,
    when ``m`` is a sequence with one observable per outcome of the chosen
    setting) in its eigenbasis on his phase-shifted conditional state.  The
    estimator inverts the calibrated response of the sample mean of
    (m_est(a) - m) around theta = 0.  ``empirical_var`` should match
    ``predicted_var`` = Var[M_est] / (n |d<M_est - M>/dtheta|^2) in the
    central limit.
    """
    if n < 1 or reps < 2:
        raise ValidationError(f"need n >= 1 shots and reps >= 2 repetitions, got n = {n}, reps = {reps}")
    h = require_hermitian(h, name="H")
    adaptive = isinstance(m, (list, tuple))
    if adaptive:
        if setting is None:
            raise ValidationError("per-outcome observables need an explicit setting label")
        m_list = [require_hermitian(mi, name=f"M[{i}]") for i, mi in enumerate(m)]
    else:
        m_single = require_hermitian(m, name="M")
        if setting is None:
            _, setting = conditional_variance(assemblage, m_single)
    rec = assemblage.setting(setting)
    if adaptive and len(m_list) != rec.n_outcomes:
        raise ValidationError(
            f"got {len(m_list)} observables for {rec.n_outcomes} outcomes of {setting!r}"
        )
    if not adaptive:
        m_list = [m_single] * rec.n_outcomes

    deriv = 0.0
    for p_a, st, m_a in zip(rec.probabilities, rec.states, m_list):
        deriv += p_a * _mean_derivative(st.reconstruct(), h, m_a)
    if abs(deriv) < 1e-8:
        raise NumericError(f"response |d<M>/dtheta| = {abs(deriv):.3e} is flat; cannot calibrate")
    spectral_radius = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    if abs(theta_true) * spectral_radius > 0.05:
        raise ValidationError(
            f"theta_true = {theta_true} leaves the linear-response window for this generator"
        )

    u = unitary_from_generator(h, theta_true)

    # Joint distribution of (Alice outcome, Bob M_a-eigenvector) at theta_true,
    # and the calibrated per-outcome offsets m_est(a) - m at theta = 0.
    joint, offsets = [], []
    var_m_est = 0.0
    for p_a, st, m_a in zip(rec.probabilities, rec.states, m_list):
        m_spec = hermitian_eig(m_a)
        m_est = expectation(st, m_a)
        var_m_est += p_a * variance(st, m_a)
        # p(m) = sum_i (lam_i - mu) |<m|U v_i>|^2 + mu on the rotated conditional state
        p_m = np.abs(m_spec.eigenvectors.conj().T @ (u @ st.eigenvectors)) ** 2 @ (st.eigenvalues - st.floor) + st.floor
        joint.append(p_a * np.clip(p_m, 0.0, None))
        offsets.append(m_est - m_spec.eigenvalues)
    joint = np.concatenate(joint)
    offsets = np.concatenate(offsets)
    joint /= joint.sum()

    estimates = np.empty(int(reps))
    for rep in range(int(reps)):
        counts = _rng(int(seed), rep).multinomial(int(n), joint)
        sample_mean = float(np.dot(counts, offsets)) / float(n)
        estimates[rep] = -sample_mean / deriv
    empirical = float(np.var(estimates, ddof=1))
    predicted = var_m_est / (float(n) * deriv * deriv)
    return SampleRun(
        seed=int(seed),
        n_shots=int(n),
        theta_true=float(theta_true),
        estimates=estimates,
        empirical_var=empirical,
        predicted_var=predicted,
        derivative=deriv,
        var_m_est=var_m_est,
        setting=setting,
    )


@dataclass(frozen=True)
class ProductCheck:
    """Estimator-level EPR product test: Var[theta_est] * Var[H_est] vs 1/(4n)."""

    product: float
    bound: float
    threshold: float
    epr_flag: bool
    var_theta_est: float
    var_h_est: float
    run: SampleRun


def epr_product_check(
    assemblage: Assemblage,
    h,
    m,
    theta_true: float = 0.01,
    n: int = 10_000,
    reps: int = 200,
    seed: int = 0,
    theta_setting: str | None = None,
) -> ProductCheck:
    """Flag an EPR paradox when the estimator-variance product beats 1/(4n).

    Var[theta_est] is empirical (from ``moment_estimator_validation``);
    Var[H_est] uses the optimal conditional-mean estimator, i.e. the
    conditional variance over the supplied settings.  The detection threshold
    keeps a 5-relative-standard-error guard band below 1/(4n) so statistical
    fluctuations of the variance estimate cannot produce false positives.
    """
    run = moment_estimator_validation(
        assemblage, h, m, theta_true=theta_true, n=n, reps=reps, seed=seed, setting=theta_setting
    )
    var_h_est, _ = conditional_variance(assemblage, h)
    product = run.empirical_var * var_h_est
    bound = 1.0 / (4.0 * float(n))
    guard = 5.0 * np.sqrt(2.0 / (int(reps) - 1))
    threshold = bound * (1.0 - guard)
    return ProductCheck(
        product=product,
        bound=bound,
        threshold=threshold,
        epr_flag=bool(product < threshold),
        var_theta_est=run.empirical_var,
        var_h_est=var_h_est,
        run=run,
    )
