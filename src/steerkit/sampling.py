"""Stochastic validation of the estimator-level claims.

Each repetition's outcome counts come from a counter-based Philox generator
keyed by an explicit 64-bit seed; repetition r of a run draws from
Philox(key=(seed, r)), so repetitions are reproducible independently of
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage, conditional_variance
from .linalg import NumericError, Spectrum, ValidationError, commutator, hermitian_eig, require_hermitian, unitary_from_generator
from .metrology import expectation, variance

_FD_STEP = 1e-5  # finite-difference step for the derivative cross-check


def _rng(seed: int, rep: int) -> np.random.Generator:
    """Philox keyed by (seed, rep), each word taken mod 2^64."""
    return np.random.Generator(np.random.Philox(key=np.array([seed % (1 << 64), rep % (1 << 64)], dtype=np.uint64)))


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


def _mean_derivative(st: Spectrum, h: np.ndarray, u_step: np.ndarray, m: np.ndarray) -> float:
    """d<M>_theta/dtheta at theta = 0, analytically and with an FD cross-check.

    The analytic value is <-i[M, H]>; the central difference evaluates <M> on
    the spectra rotated by U = exp(-i step H) (``u_step``) and by U^dag.
    """
    analytic = expectation(st, commutator(m, h))
    rotated = (Spectrum(st.eigenvalues, u @ st.eigenvectors, st.floor) for u in (u_step, u_step.conj().T))
    fwd, bwd = (expectation(r, m) for r in rotated)
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
    (m_est(a) - m) around theta = 0.  H and M may each be a d x d matrix
    or a real diagonal (d,).  H is diagonalised once per run, and a fixed M
    once: H's spectrum gives its spectral radius and every rotation
    exp(-i theta H).  ``empirical_var`` should match
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
        m_list = [require_hermitian(m, name="M")]
        if setting is None:
            _, setting = conditional_variance(assemblage, m_list[0])
    rec = assemblage.setting(setting)
    if adaptive and len(m_list) != rec.n_outcomes:
        raise ValidationError(
            f"got {len(m_list)} observables for {rec.n_outcomes} outcomes of {setting!r}"
        )
    # (M_a, its spectrum) per outcome: a fixed M is diagonalised once
    m_pairs = [(mi, hermitian_eig(mi)) for mi in m_list] * (1 if adaptive else rec.n_outcomes)
    h_spec = hermitian_eig(h)
    u_step, u = (unitary_from_generator(h_spec, angle) for angle in (_FD_STEP, theta_true))

    # Per outcome: the response d<M_a>/dtheta, the joint distribution of (Alice outcome,
    # Bob M_a-eigenvector) at theta_true, and the calibrated offset m_est(a) - m at theta = 0.
    deriv, var_m_est, joint, offsets = 0.0, 0.0, [], []
    for p_a, st, (m_a, m_spec) in zip(rec.probabilities, rec.states, m_pairs):
        deriv += p_a * _mean_derivative(st, h, u_step, m_a)
        var_m_est += p_a * variance(st, m_a)
        # p(m) = sum_i (lam_i - mu) |<m|U v_i>|^2 + mu on the rotated conditional state
        p_m = np.abs(m_spec.eigenvectors.conj().T @ (u @ st.eigenvectors)) ** 2 @ (st.eigenvalues - st.floor) + st.floor
        joint.append(p_a * np.clip(p_m, 0.0, None))
        offsets.append(expectation(st, m_a) - m_spec.eigenvalues)
    if abs(deriv) < 1e-8:
        raise NumericError(f"response |d<M>/dtheta| = {abs(deriv):.3e} is flat; cannot calibrate")
    if abs(theta_true) * float(np.max(np.abs(h_spec.eigenvalues))) > 0.05:
        raise ValidationError(
            f"theta_true = {theta_true} leaves the linear-response window for this generator"
        )
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

    Var[theta_est] is ``run.empirical_var`` (from ``moment_estimator_validation``);
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
        var_h_est=var_h_est,
        run=run,
    )
