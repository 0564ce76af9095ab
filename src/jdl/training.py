"""Joint semi-supervised optimization.

Every step draws a diffusion batch from all samples and, once past the
warmup, a classification batch from the labeled pool only. Both losses are
combined into one scalar and a single optimizer update runs with separate
learning rates for the shared UNet (encoder+decoder) and the classifier
head.

All batch indices, timesteps and noise draws come from per-step rng streams
keyed by (seed, purpose, step), so runs are reproducible bit for bit and
skipping one branch never shifts the draws of another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigInvalid, EmptyLabeledBatch, TrainingDiverged
from .model import JointModel
from .rng import stream
from .schedule import NoiseSchedule, q_sample


@dataclass
class TrainConfig:
    total_steps: int = 6000
    lr_diffusion: float = 2e-4
    lr_classifier: float = 1e-4
    class_loss_weight: float = 0.05
    class_start_step: int = 500
    batch_diffusion: int = 64
    batch_classification: int = 32
    label_fraction: float = 0.05
    seed: int = 0
    # classifier trains on noised inputs up to this fraction of T, matching
    # the noise window later used for guided counterfactual generation
    t_class_max_frac: float = 0.3
    diffusion_enabled: bool = True   # False: classification-only ablation

    def validate(self) -> None:
        if self.total_steps < 1:
            raise ConfigInvalid("total_steps must be >= 1")
        if self.class_start_step >= self.total_steps and self.class_loss_weight > 0:
            raise ConfigInvalid("class_start_step must be < total_steps")
        if not self.diffusion_enabled and self.class_start_step > 0:
            # a warm-up step would run neither objective
            raise ConfigInvalid("without diffusion, class_start_step must be 0")
        if self.batch_diffusion < 1 or self.batch_classification < 1:
            raise ConfigInvalid("batch sizes must be >= 1")
        if not (0.0 < self.label_fraction <= 1.0):
            raise ConfigInvalid("label_fraction must lie in (0, 1]")
        if not (0.0 < self.t_class_max_frac <= 1.0):
            raise ConfigInvalid("t_class_max_frac must lie in (0, 1]")


@dataclass
class TrainStepReport:
    step: int
    diffusion_loss: Optional[float]
    classification_loss: Optional[float]
    total_loss: float


@dataclass
class TrainData:
    """Training arrays: inputs in model space plus multi-hot labels."""
    z0: np.ndarray              # (N, C, H, W)
    labels: np.ndarray          # (N, K) in {0,1}
    labeled_mask: np.ndarray    # (N,) bool

    def __post_init__(self):
        self.z0 = np.asarray(self.z0, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool)

    @property
    def n(self) -> int:
        return self.z0.shape[0]


@dataclass
class TrainSummary:
    reports: list
    class_indices_used: set = field(default_factory=set)


class Adam:
    """Adaptive moment estimation with per-group learning rates."""

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8):
        # groups: list of (named_params: dict[str, Tensor], lr)
        self.groups = [(dict(named), float(lr)) for named, lr in groups]
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data)
                  for named, _ in self.groups for name, p in named.items()}
        self.v = {name: np.zeros_like(p.data)
                  for named, _ in self.groups for name, p in named.items()}

    def zero_grad(self) -> None:
        for named, _ in self.groups:
            for p in named.values():
                p.grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for named, lr in self.groups:
            for name, p in named.items():
                if p.grad is None:
                    continue
                g = p.grad
                self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
                self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
                mhat = self.m[name] / c1
                vhat = self.v[name] / c2
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"opt.step": np.asarray(float(self.t))}
        for name in self.m:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self.t = int(arrays["opt.step"])
        for name in self.m:
            self.m[name] = np.array(arrays[f"opt.m.{name}"])
            self.v[name] = np.array(arrays[f"opt.v.{name}"])


def diffusion_loss(model: JointModel, z0_batch: np.ndarray,
                   sched: NoiseSchedule, rng: np.random.Generator) -> Tensor:
    """MSE between drawn noise and the model's prediction at random t."""
    n = z0_batch.shape[0]
    t = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal(z0_batch.shape)
    zt = q_sample(z0_batch, t, eps, sched)
    out = model.denoise(zt, t)
    # the graph tensor is channel-last; compare against eps transposed to match
    return ad.mse(out.eps_hat, Tensor(eps.transpose(0, 2, 3, 1)))


def classification_loss(model: JointModel, images: np.ndarray, labels: np.ndarray,
                        sched: NoiseSchedule, rng: np.random.Generator,
                        t_max: Optional[int] = None) -> Tensor:
    """Per-class BCE on lightly noised labeled samples."""
    n = images.shape[0]
    if n == 0:
        raise EmptyLabeledBatch("classification batch is empty")
    if t_max is None:
        t_max = max(1, round(0.3 * sched.T))
    t = rng.integers(1, t_max + 1, size=n)
    eps = rng.standard_normal(images.shape)
    zt = q_sample(images, t, eps, sched)
    logits = model.classify(zt, t)
    return ad.bce_with_logits(logits, Tensor(labels))


def make_optimizer(model: JointModel, cfg: TrainConfig) -> Adam:
    shared = {**model.encoder_params(), **model.decoder_params()}
    return Adam([(shared, cfg.lr_diffusion),
                 (model.classifier_params(), cfg.lr_classifier)])


def train_joint(model: JointModel, data: TrainData, cfg: TrainConfig,
                sched: NoiseSchedule,
                on_step: Optional[Callable[[TrainStepReport], None]] = None,
                opt: Optional[Adam] = None, start_step: int = 0) -> TrainSummary:
    """Run the joint loop; deterministic given cfg.seed.

    With ``class_loss_weight == 0`` the classification branch is skipped
    entirely, which makes the run bit-identical to pure diffusion training.
    With ``diffusion_enabled == False`` only the classifier objective runs
    (the "UNet without diffusion" ablation).
    """
    cfg.validate()
    if not cfg.diffusion_enabled and cfg.class_loss_weight <= 0:
        raise ConfigInvalid("both objectives disabled")
    opt = opt or make_optimizer(model, cfg)
    labeled_idx = np.flatnonzero(data.labeled_mask)
    t_class_max = max(1, round(cfg.t_class_max_frac * sched.T))
    summary = TrainSummary(reports=[])

    for step in range(start_step, cfg.total_steps):
        opt.zero_grad()
        d_term = None
        c_term = None

        if cfg.diffusion_enabled:
            idx = stream(cfg.seed, "diff-batch", step).integers(0, data.n, cfg.batch_diffusion)
            d_term = diffusion_loss(model, data.z0[idx], sched,
                                    stream(cfg.seed, "diff-draw", step))

        use_class = cfg.class_loss_weight > 0 and step >= cfg.class_start_step
        if use_class:
            if labeled_idx.size == 0:
                raise EmptyLabeledBatch("no labeled samples in the training set")
            pick = stream(cfg.seed, "class-batch", step).integers(
                0, labeled_idx.size, cfg.batch_classification)
            cidx = labeled_idx[pick]
            summary.class_indices_used.update(int(i) for i in cidx)
            c_term = classification_loss(model, data.z0[cidx], data.labels[cidx],
                                         sched, stream(cfg.seed, "class-draw", step),
                                         t_max=t_class_max)

        if d_term is not None and c_term is not None:
            total = ad.add(d_term, ad.mul(c_term, cfg.class_loss_weight))
        elif d_term is not None:
            total = d_term
        else:
            total = ad.mul(c_term, cfg.class_loss_weight)

        total_val = total.item()
        if not np.isfinite(total_val):
            raise TrainingDiverged(f"loss became {total_val} at step {step}")
        ad.backward(total)
        opt.step()

        report = TrainStepReport(
            step=step,
            diffusion_loss=None if d_term is None else d_term.item(),
            classification_loss=None if c_term is None else c_term.item(),
            total_loss=total_val)
        summary.reports.append(report)
        if on_step is not None:
            on_step(report)

    return summary


def save_training_checkpoint(path, model: JointModel, opt: Adam, step: int) -> None:
    arrays = dict(model.state_arrays())
    arrays.update(opt.state_arrays())
    arrays["train.step"] = np.asarray(float(step))
    ad.save_weights(path, arrays)


def load_training_checkpoint(path, model: JointModel, opt: Optional[Adam] = None) -> int:
    """Restore model (and optimizer, if given); returns the stored step."""
    arrays = ad.load_weights(path)
    model.load_state(arrays)
    if opt is not None and "opt.step" in arrays:
        opt.load_state(arrays)
    return int(arrays.get("train.step", np.asarray(0.0)))
