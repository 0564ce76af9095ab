"""Reverse-process samplers with score-based classifier guidance.

Guidance adjusts the predicted noise by the scaled classifier gradient:
eps' = eps_hat - s * sqrt(1 - abar_t) * d/dz log p(y_k | z_t), with the
log-complement used when steering away from a class. With scale 0 or
direction "none" the prediction is returned untouched (bitwise), so guided
and unguided runs share identical rng streams and trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadClassIndex, BadSubsequence
from .schedule import NoiseSchedule

GRAD_CLIP_NORM = 1e3  # per-item cap against off-manifold classifier blow-ups


@dataclass(frozen=True)
class GuidanceConfig:
    target_class: int = 0
    direction: str = "none"     # "toward" | "away" | "none"
    scale: float = 0.0

    def __post_init__(self):
        if self.direction not in ("toward", "away", "none"):
            raise ValueError(f"unknown guidance direction {self.direction!r}")
        if not np.isfinite(self.scale) or self.scale < 0:
            raise ValueError("guidance scale must be finite and >= 0")
        # the upper bound needs num_classes; JointModel.class_score_grad checks it
        if self.target_class < 0:
            raise BadClassIndex(f"bad class index {self.target_class}")

    @property
    def active(self) -> bool:
        return self.direction != "none" and self.scale > 0


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "ddpm"          # "ddpm" | "ddim"
    ddim_steps: int = 50
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ddpm", "ddim"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")


@dataclass
class GuidanceStats:
    """Counts gradient-norm clipping events across a sampling run."""
    clipped: int = 0
    total: int = 0


def guided_epsilon(model, z_t: np.ndarray, t: int, g: GuidanceConfig,
                   sched: NoiseSchedule, stats: GuidanceStats | None = None) -> np.ndarray:
    """Adjusted noise prediction for one reverse step (whole batch at t)."""
    eps = model.predict_noise(z_t, t)
    if not g.active:
        return eps
    grad = model.class_score_grad(z_t, t, g.target_class,
                                  toward=(g.direction == "toward"))
    flat = grad.reshape(grad.shape[0], -1)
    norms = np.sqrt((flat * flat).sum(axis=1))
    over = norms > GRAD_CLIP_NORM
    if stats is not None:
        stats.total += grad.shape[0]
        stats.clipped += int(over.sum())
    if over.any():
        scale_back = np.where(over, GRAD_CLIP_NORM / np.maximum(norms, 1e-12), 1.0)
        grad = grad * scale_back.reshape(-1, *([1] * (grad.ndim - 1)))
    coef = g.scale * np.sqrt(1.0 - sched.alpha_bar(t))
    return eps - coef * grad


def _batch_shape(model, n: int):
    cfg = getattr(model, "cfg", None)
    if cfg is None:
        raise ValueError("model has no cfg; pass an explicit shape")
    return (n, cfg.input_channels, cfg.image_side, cfg.image_side)


def ddpm_reverse_from(model, z: np.ndarray, t_start: int, g: GuidanceConfig,
                      sched: NoiseSchedule, rng: np.random.Generator,
                      stats: GuidanceStats | None = None) -> np.ndarray:
    """Ancestral reverse chain from z_{t_start} down to z_0."""
    z = np.asarray(z, dtype=np.float64)
    for t in range(t_start, 0, -1):
        eps = guided_epsilon(model, z, t, g, sched, stats)
        beta = sched.beta(t)
        mu = (z - beta / np.sqrt(1.0 - sched.alpha_bar(t)) * eps) / np.sqrt(sched.alpha(t))
        if t > 1:
            sigma = np.sqrt(beta * (1.0 - sched.alpha_bar_prev(t))
                            / (1.0 - sched.alpha_bar(t)))
            z = mu + sigma * rng.standard_normal(z.shape)
        else:
            z = mu
    return z


def ddpm_sample(model, n: int, g: GuidanceConfig, sched: NoiseSchedule,
                rng: np.random.Generator, shape=None,
                stats: GuidanceStats | None = None) -> np.ndarray:
    """Draw z_T ~ N(0, I) and run the full ancestral chain."""
    shape = shape or _batch_shape(model, n)
    z = rng.standard_normal(shape)
    return ddpm_reverse_from(model, z, sched.T, g, sched, rng, stats)


def ddim_subsequence(T: int, steps: int) -> np.ndarray:
    """Evenly spaced timesteps from 1 to T inclusive, strictly increasing."""
    if not 1 <= steps <= T:
        raise BadSubsequence(f"ddim_steps must lie in [1, {T}], got {steps}")
    if steps == 1:
        return np.asarray([T], dtype=np.int64)
    seq = np.unique(np.round(np.linspace(1, T, steps)).astype(np.int64))
    if seq[-1] != T or np.any(np.diff(seq) <= 0):
        raise BadSubsequence("subsequence must increase strictly and end at T")
    return seq


def ddim_reverse_from(model, z: np.ndarray, taus: np.ndarray, g: GuidanceConfig,
                      sched: NoiseSchedule, rng: np.random.Generator,
                      eta: float = 0.0,
                      stats: GuidanceStats | None = None) -> np.ndarray:
    """DDIM updates over the timestep subsequence ``taus`` (ascending)."""
    z = np.asarray(z, dtype=np.float64)
    for i in range(len(taus) - 1, -1, -1):
        t = int(taus[i])
        t_prev = int(taus[i - 1]) if i > 0 else 0
        eps = guided_epsilon(model, z, t, g, sched, stats)
        abar = sched.alpha_bar(t)
        abar_prev = sched.alpha_bars[t_prev]
        z0_hat = (z - np.sqrt(1.0 - abar) * eps) / np.sqrt(abar)
        if eta > 0 and t_prev > 0:
            sigma = (eta * np.sqrt((1.0 - abar_prev) / (1.0 - abar))
                     * np.sqrt(1.0 - abar / abar_prev))
            dir_coef = np.sqrt(max(1.0 - abar_prev - sigma ** 2, 0.0))
            z = (np.sqrt(abar_prev) * z0_hat + dir_coef * eps
                 + sigma * rng.standard_normal(z.shape))
        else:
            z = np.sqrt(abar_prev) * z0_hat + np.sqrt(1.0 - abar_prev) * eps
    return z


def ddim_sample(model, n: int, g: GuidanceConfig, cfg: SamplerConfig,
                sched: NoiseSchedule, rng: np.random.Generator, shape=None,
                z_init: np.ndarray | None = None,
                stats: GuidanceStats | None = None) -> np.ndarray:
    """Deterministic (eta=0) DDIM over an evenly spaced subsequence."""
    taus = ddim_subsequence(sched.T, cfg.ddim_steps)
    shape = shape or _batch_shape(model, n)
    z = z_init if z_init is not None else rng.standard_normal(shape)
    return ddim_reverse_from(model, z, taus, g, sched, rng, eta=cfg.eta, stats=stats)
