"""The noise schedule's ``alpha_bars`` table and the closed-form forward
(noising) process.

Timesteps are 1-based: ``alpha_bars[t]`` is valid for t in [0, T] with the
t=0 row reserved for clean data (alpha_bars[0] == 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, ShapeMismatch, TimestepOutOfRange, is_count, is_real


@dataclass(frozen=True)
class NoiseSchedule:
    """The ``alpha_bars`` table of a T-step schedule. Immutable, freely
    shareable."""

    alpha_bars: np.ndarray   # prod of (1 - beta_s) for s <= t; alpha_bars[0] == 1

    @property
    def T(self) -> int:
        """The number of steps: the table has one row per step after t = 0."""
        return len(self.alpha_bars) - 1


def make_linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """The ``alpha_bars`` table of T betas spaced linearly from
    ``beta_start`` to ``beta_end``, both included."""
    if not is_count(T) or T < 1:
        raise ConfigInvalid(f"T must be an integer >= 1, got {T!r}")
    if not (is_real(beta_start) and is_real(beta_end) and 0.0 < beta_start <= beta_end < 1.0):
        raise ConfigInvalid(f"need 0 < beta_start <= beta_end < 1, "
                            f"got ({beta_start}, {beta_end})")
    betas = np.concatenate([[0.0], np.linspace(beta_start, beta_end, T, dtype=np.float64)])
    return NoiseSchedule(np.cumprod(1.0 - betas))


def q_sample(z0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form corruption: z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps.

    ``t`` is an integer scalar or a 1-d integer array with one timestep per
    batch item; anything else raises ``TimestepOutOfRange``.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != z0.shape:
        raise ShapeMismatch(f"q_sample: eps shape {eps.shape} != z0 shape {z0.shape}")
    t = np.asarray(t)
    if t.ndim > 1 or not np.issubdtype(t.dtype, np.integer):
        raise TimestepOutOfRange(
            f"q_sample: t must be an integer scalar or 1-d integer array, "
            f"got {t.dtype} of shape {t.shape}")
    if np.any(t < 1) or np.any(t > sched.T):
        raise TimestepOutOfRange(f"t must lie in [1, {sched.T}]")
    if t.ndim == 1 and t.shape[0] != z0.shape[0]:
        raise TimestepOutOfRange(
            f"q_sample: {t.shape[0]} timesteps for batch of {z0.shape[0]}")
    # one coefficient per batch item, broadcast over the item's own axes
    abar = sched.alpha_bars[t].reshape(t.shape + (1,) * (z0.ndim - t.ndim))
    return np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps
