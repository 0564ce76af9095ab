"""Noise schedule tables and the closed-form forward (noising) process.

Timesteps are 1-based: ``alpha_bar[t]`` is valid for t in [0, T] with the
t=0 row reserved for clean data (alpha_bar[0] == 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange, ShapeMismatch, TimestepOutOfRange


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed beta/alpha tables. Immutable, freely shareable."""

    T: int
    betas: np.ndarray        # beta_1..beta_T, index 0 unused (set to 0)
    alphas: np.ndarray       # 1 - beta, same indexing
    alpha_bars: np.ndarray   # cumulative products, alpha_bars[0] == 1

    def alpha_bar(self, t):
        return self.alpha_bars[np.asarray(t)]


def make_linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear beta schedule inclusive of both endpoints."""
    if T < 1:
        raise InvalidRange(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise InvalidRange(f"need 0 < beta_start <= beta_end < 1, "
                           f"got ({beta_start}, {beta_end})")
    if T == 1:
        core = np.asarray([beta_start], dtype=np.float64)
    else:
        core = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    betas = np.concatenate([[0.0], core])
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    alpha_bars[0] = 1.0
    return NoiseSchedule(T=T, betas=betas, alphas=alphas, alpha_bars=alpha_bars)


def _per_item_coef(values: np.ndarray, batch_shape: tuple) -> np.ndarray:
    """Reshape per-item scalars to broadcast over (N, ...) batches."""
    v = np.asarray(values, dtype=np.float64)
    return v.reshape(v.shape + (1,) * (len(batch_shape) - 1))


def q_sample(z0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form corruption: z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps.

    ``t`` may be a scalar or one timestep per batch item.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != z0.shape:
        raise ShapeMismatch(f"q_sample: eps shape {eps.shape} != z0 shape {z0.shape}")
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > sched.T):
        raise TimestepOutOfRange(f"t must lie in [1, {sched.T}]")
    abar = sched.alpha_bar(t)
    if t.ndim == 0:
        return np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps
    if t.shape[0] != z0.shape[0]:
        raise TimestepOutOfRange(
            f"q_sample: {t.shape[0]} timesteps for batch of {z0.shape[0]}")
    a = _per_item_coef(np.sqrt(abar), z0.shape)
    b = _per_item_coef(np.sqrt(1.0 - abar), z0.shape)
    return a * z0 + b * eps
