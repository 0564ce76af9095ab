"""Reverse-process sampler with score-based classifier guidance.

One loop, ``ddim_reverse_from``, runs every reverse chain: each step
estimates z0 from the guided noise and moves to the previous timestep of an
ascending subsequence, adding noise scaled by eta (Song et al. 2021, Eq. 16).
Ancestral DDPM (Ho et al. 2020) is the member with eta = 1 over every t in
1..T: sigma_t is then the DDPM posterior std and the means agree up to
rounding, so ``SamplerConfig(kind="ddpm")`` runs exactly that; its
``"ddim"`` runs eta = 0, and only ``ddim_reverse_from`` takes an eta between.

Guidance adjusts the predicted noise by the scaled classifier gradient:
eps' = eps_hat - s * sqrt(1 - abar_t) * d/dz log p(y_k | z_t), with the
log-complement used when steering away from a class (Dhariwal & Nichol
2021). The classifier shares the denoiser's encoder, so a guided step runs
that encoder once (``model.encode``): the classifier gradient backpropagates
through it first, which frees its graph, and the decoder then reads its
activations under ``no_grad``. Scale 0 turns guidance off and returns the
plain ``no_grad`` prediction (bitwise), so guided and unguided runs share
identical rng streams and trajectories.

``ddim_reverse_from`` validates its timesteps and the guidance target
against the schedule and ``model.cfg`` once, before the first step, and
``guided_epsilon`` its ``t`` before any model work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, TimestepOutOfRange, is_count, is_real
from .schedule import NoiseSchedule

GRAD_CLIP_NORM = 1e3  # per-item cap against off-manifold classifier blow-ups


@dataclass(frozen=True)
class GuidanceConfig:
    target_class: int = 0
    direction: str = "toward"   # "toward" | "away"
    scale: float = 0.0          # 0 turns guidance off

    def __post_init__(self):
        if self.direction not in ("toward", "away"):
            raise ConfigInvalid(f"unknown guidance direction {self.direction!r}")
        if not is_real(self.scale) or not np.isfinite(self.scale) or self.scale < 0:
            raise ConfigInvalid(f"guidance scale {self.scale!r} must be a finite real >= 0")
        if not is_count(self.target_class) or self.target_class < 0:
            raise ConfigInvalid(f"bad class index {self.target_class!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """``"ddpm"``: every t at eta 1; ``"ddim"``: ``ddim_steps`` t at eta 0."""
    kind: str = "ddpm"
    ddim_steps: int = 50

    def __post_init__(self):
        if self.kind not in ("ddpm", "ddim"):
            raise ConfigInvalid(f"unknown sampler kind {self.kind!r}")
        if not is_count(self.ddim_steps) or self.ddim_steps < 1:
            raise ConfigInvalid(f"ddim_steps must be an integer >= 1, got {self.ddim_steps!r}")


@dataclass
class GuidanceStats:
    """Counts gradient-norm clipping events across a sampling run."""
    clipped: int = 0
    total: int = 0


def guided_epsilon(model, z_t: np.ndarray, t: int, g: GuidanceConfig,
                   sched: NoiseSchedule, stats: GuidanceStats | None = None) -> np.ndarray:
    """Adjusted noise prediction for one reverse step (whole batch at t).
    Raises ``TimestepOutOfRange``, before any model work, unless ``t`` is an
    integer in [1, T]."""
    if not is_count(t) or not 1 <= t <= sched.T:
        raise TimestepOutOfRange(f"t must be an integer in [1, {sched.T}], got {t!r}")
    if g.scale == 0:
        return model.predict_noise(z_t, t)
    # score backward before the decoder: the encoder graph is freed by then
    enc = model.encode(z_t, t)
    grad = model.class_score_grad(enc, t, g.target_class,
                                  toward=(g.direction == "toward"))
    eps = model.predict_noise(enc, t)
    flat = grad.reshape(grad.shape[0], -1)
    norms = np.sqrt((flat * flat).sum(axis=1))
    if stats is not None:
        stats.total += grad.shape[0]
        stats.clipped += int((norms > GRAD_CLIP_NORM).sum())
    # exactly 1.0 for items under the cap, zero-norm items included
    keep = np.minimum(1.0, GRAD_CLIP_NORM / np.maximum(norms, 1e-12))
    grad = grad * keep.reshape(-1, *([1] * (grad.ndim - 1)))
    coef = g.scale * np.sqrt(1.0 - sched.alpha_bars[t])
    return eps - coef * grad


def ddim_subsequence(T: int, steps: int) -> np.ndarray:
    """Evenly spaced timesteps from 1 to T inclusive, strictly increasing."""
    if not is_count(steps) or not 1 <= steps <= T:
        raise ConfigInvalid(f"ddim_steps must be an integer in [1, {T}], got {steps!r}")
    if steps == 1:
        return np.asarray([T], dtype=np.int64)
    # the spacing (T - 1) / (steps - 1) is at least 1, so rounding keeps the
    # values distinct
    return np.round(np.linspace(1, T, steps)).astype(np.int64)


def ddim_reverse_from(model, z: np.ndarray, taus: np.ndarray, g: GuidanceConfig,
                      sched: NoiseSchedule, rng: np.random.Generator,
                      eta: float = 0.0,
                      stats: GuidanceStats | None = None) -> np.ndarray:
    """Reverse updates from z at ``taus[-1]`` down to z_0 over the ascending
    timestep subsequence ``taus``; eta = 1 over ``1..t`` is ancestral DDPM.

    Any eta in [0, 1] runs here; ``ddim_sample`` runs 0 and 1 only. Raises
    ``TimestepOutOfRange`` unless ``taus`` are strictly increasing integers
    in [1, T], and ``ConfigInvalid`` for a guidance target outside
    ``model.cfg.num_classes``, whatever the scale.
    """
    taus = np.asarray(taus)
    if (taus.ndim != 1 or taus.size == 0 or not np.issubdtype(taus.dtype, np.integer)
            or taus[0] < 1 or taus[-1] > sched.T or np.any(np.diff(taus) <= 0)):
        raise TimestepOutOfRange(
            f"timesteps must be strictly increasing integers in [1, {sched.T}], got {taus}")
    if g.target_class >= model.cfg.num_classes:
        raise ConfigInvalid(
            f"class {g.target_class} outside [0, {model.cfg.num_classes})")
    z = np.asarray(z, dtype=np.float64)
    for i in range(len(taus) - 1, -1, -1):
        t = int(taus[i])
        t_prev = int(taus[i - 1]) if i > 0 else 0
        eps = guided_epsilon(model, z, t, g, sched, stats)
        abar = sched.alpha_bars[t]
        abar_prev = sched.alpha_bars[t_prev]
        z0_hat = (z - np.sqrt(1.0 - abar) * eps) / np.sqrt(abar)
        # 0 at eta = 0, and at t_prev = 0, where abar_prev is 1
        sigma = (eta * np.sqrt((1.0 - abar_prev) / (1.0 - abar))
                 * np.sqrt(1.0 - abar / abar_prev))
        z = np.sqrt(abar_prev) * z0_hat + np.sqrt(max(1.0 - abar_prev - sigma ** 2, 0.0)) * eps
        if sigma > 0:
            z = z + sigma * rng.standard_normal(z.shape)
    return z


def ddim_sample(model, n: int, g: GuidanceConfig, cfg: SamplerConfig,
                sched: NoiseSchedule, rng: np.random.Generator,
                stats: GuidanceStats | None = None) -> np.ndarray:
    """Draw z_T ~ N(0, I) for n images of ``model.cfg``'s shape, then run
    t = T..1 at eta 1 ("ddpm") or ``cfg.ddim_steps`` steps at eta 0 ("ddim")."""
    if cfg.kind == "ddpm":
        taus, eta = np.arange(1, sched.T + 1), 1.0
    else:
        taus, eta = ddim_subsequence(sched.T, cfg.ddim_steps), 0.0
    m = model.cfg
    z = rng.standard_normal((n, m.input_channels, m.image_side, m.image_side))
    return ddim_reverse_from(model, z, taus, g, sched, rng, eta=eta, stats=stats)
