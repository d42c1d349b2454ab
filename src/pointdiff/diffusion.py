"""Noise schedule, forward corruption and the reverse sampling loop.

The reverse step follows the released-code form: the model predicts the
clean points directly and the update adds a deterministic sqrt(sigma_t)
scaled copy of that prediction (no fresh Gaussian draw).  The written-form
variant (sigma_t instead of its square root) is kept behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonFiniteSample, ShapeError

RESIDUAL_SQRT_SIGMA = "sqrt_sigma"
RESIDUAL_SIGMA = "sigma"


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed per-timestep corruption coefficients (all length T)."""

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    alpha_bar_prev: np.ndarray  # alpha_bar shifted by one, with value 1 at t=0
    sigma: np.ndarray  # 1 - alpha_bar


def build_schedule(T, beta_start=1e-4, beta_end=0.05) -> NoiseSchedule:
    """Linear beta schedule; cumulative products computed in 64-bit."""
    if T < 1:
        raise InvalidArgument(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start < beta_end < 1.0:
        raise InvalidArgument(f"need 0 < beta_start < beta_end < 1, got [{beta_start}, {beta_end}]")
    if T == 1:
        beta = np.array([beta_start], dtype=np.float64)
    else:
        t = np.arange(T, dtype=np.float64)
        beta = beta_start + t * (beta_end - beta_start) / (T - 1)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    alpha_bar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    sigma = 1.0 - alpha_bar
    return NoiseSchedule(
        T=int(T),
        beta=beta,
        alpha=alpha,
        alpha_bar=alpha_bar,
        alpha_bar_prev=alpha_bar_prev,
        sigma=sigma,
    )


def q_sample(x0, t, eps, schedule: NoiseSchedule):
    """Forward corruption: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeError.mismatch("q_sample", x0.shape, eps.shape)
    if not 0 <= t < schedule.T:
        raise InvalidArgument(f"timestep {t} out of range [0, {schedule.T})")
    ab = schedule.alpha_bar[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def reverse_step(x_t, t, x_rec, schedule: NoiseSchedule, residual=RESIDUAL_SQRT_SIGMA):
    """One reverse update from x_t to x_{t-1} given the clean prediction."""
    x_t = np.asarray(x_t, dtype=np.float64)
    x_rec = np.asarray(x_rec, dtype=np.float64)
    if x_t.shape != x_rec.shape:
        raise ShapeError.mismatch("reverse_step", x_t.shape, x_rec.shape)
    if not 0 <= t < schedule.T:
        raise InvalidArgument(f"timestep {t} out of range [0, {schedule.T})")
    if residual not in (RESIDUAL_SQRT_SIGMA, RESIDUAL_SIGMA):
        raise InvalidArgument(f"unknown residual variant {residual!r}")

    denom = 1.0 - schedule.alpha_bar[t]
    c_xt = np.sqrt(schedule.alpha[t]) * (1.0 - schedule.alpha_bar_prev[t]) / denom
    c_rec = np.sqrt(schedule.alpha_bar_prev[t]) * schedule.beta[t] / denom
    model_mean = c_xt * x_t + c_rec * x_rec
    if t == 0:
        return model_mean
    s = schedule.sigma[t]
    coeff = np.sqrt(s) if residual == RESIDUAL_SQRT_SIGMA else s
    return model_mean + coeff * x_rec


def sample(
    decoder_fn,
    n_points,
    schedule: NoiseSchedule,
    rng_seed=0,
    residual=RESIDUAL_SQRT_SIGMA,
    on_step=None,
):
    """Full reverse chain from Gaussian noise to a clean prediction.

    ``decoder_fn`` maps (x_t of shape (n_points, 3), t) to the clean-point
    prediction of the same shape.  ``on_step(t, x)``, when given, is called
    after each reverse step with the chain's new state x_{t-1}; the call at
    t = 0 receives the returned array itself.  Deterministic given
    ``rng_seed``.  Raises ``NonFiniteSample`` naming the first t whose
    prediction or new state holds a NaN or an infinity.
    """
    rng = np.random.default_rng(rng_seed)
    x = rng.standard_normal((n_points, 3))
    for t in range(schedule.T - 1, -1, -1):
        x_rec = np.asarray(decoder_fn(x, t), dtype=np.float64)
        if x_rec.shape != x.shape:
            raise ShapeError.mismatch("sample: decoder output", x_rec.shape, x.shape)
        x = reverse_step(x, t, x_rec, schedule, residual=residual)
        # every coefficient on x_rec is positive, so a non-finite prediction
        # always leaves a non-finite state: one check covers both
        if not np.isfinite(x).all():
            what = "decoder prediction" if not np.isfinite(x_rec).all() else "new state"
            raise NonFiniteSample(f"sample: non-finite {what} at step t={t}")
        if on_step is not None:
            on_step(t, x)
    return x
