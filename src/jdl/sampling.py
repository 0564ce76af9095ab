"""Reverse-process sampler with score-based classifier guidance.

One loop, ``ddim_reverse_from``, runs every reverse chain: each step
estimates z0 from the guided noise and moves to the previous timestep of an
ascending subsequence, adding noise scaled by eta (Song et al. 2021, Eq. 16).
Ancestral DDPM (Ho et al. 2020) is the member with eta = 1 over every t in
1..T: sigma_t is then the DDPM posterior std and the means agree up to
rounding, so ``SamplerConfig(kind="ddpm")`` runs exactly that.

Guidance adjusts the predicted noise by the scaled classifier gradient:
eps' = eps_hat - s * sqrt(1 - abar_t) * d/dz log p(y_k | z_t), with the
log-complement used when steering away from a class. Scale 0 turns guidance
off and returns the prediction untouched (bitwise), so guided and unguided
runs share identical rng streams and trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadClassIndex, BadSubsequence
from .schedule import NoiseSchedule

GRAD_CLIP_NORM = 1e3  # per-item cap against off-manifold classifier blow-ups


@dataclass(frozen=True)
class GuidanceConfig:
    target_class: int = 0
    direction: str = "toward"   # "toward" | "away"
    scale: float = 0.0          # 0 turns guidance off

    def __post_init__(self):
        if self.direction not in ("toward", "away"):
            raise ValueError(f"unknown guidance direction {self.direction!r}")
        if not np.isfinite(self.scale) or self.scale < 0:
            raise ValueError("guidance scale must be finite and >= 0")
        # the upper bound needs num_classes; JointModel.class_score_grad checks it
        if self.target_class < 0:
            raise BadClassIndex(f"bad class index {self.target_class}")

    @property
    def active(self) -> bool:
        return self.scale > 0


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "ddpm"          # "ddpm": every t at eta 1 | "ddim": ddim_steps at eta
    ddim_steps: int = 50
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ddpm", "ddim"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if not 0.0 <= self.eta <= 1.0:     # also false for NaN
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


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
    if stats is not None:
        stats.total += grad.shape[0]
        stats.clipped += int((norms > GRAD_CLIP_NORM).sum())
    # exactly 1.0 for items under the cap, zero-norm items included
    keep = np.minimum(1.0, GRAD_CLIP_NORM / np.maximum(norms, 1e-12))
    grad = grad * keep.reshape(-1, *([1] * (grad.ndim - 1)))
    coef = g.scale * np.sqrt(1.0 - sched.alpha_bar(t))
    return eps - coef * grad


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
    """Reverse updates from z at ``taus[-1]`` down to z_0 over the ascending
    timestep subsequence ``taus``; eta = 1 over ``1..t`` is ancestral DDPM."""
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
                sched: NoiseSchedule, rng: np.random.Generator,
                stats: GuidanceStats | None = None) -> np.ndarray:
    """Draw z_T ~ N(0, I) for n images of ``model.cfg``'s shape, then run
    t = T..1 at eta 1 ("ddpm") or ``cfg.ddim_steps`` steps at ``cfg.eta`` ("ddim")."""
    if cfg.kind == "ddpm":
        taus, eta = np.arange(1, sched.T + 1), 1.0
    else:
        taus, eta = ddim_subsequence(sched.T, cfg.ddim_steps), cfg.eta
    m = model.cfg
    z = rng.standard_normal((n, m.input_channels, m.image_side, m.image_side))
    return ddim_reverse_from(model, z, taus, g, sched, rng, eta=eta, stats=stats)
