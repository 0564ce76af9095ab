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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (CheckpointMismatch, ConfigInvalid, EmptyLabeledBatch, ShapeMismatch,
                     TrainingDiverged, is_count, is_real)
from .model import JointModel
from .rng import SEED_LIMIT, stream
from .schedule import NoiseSchedule, q_sample

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# classifier trains on noised inputs up to this fraction of T, matching
# the noise window later used for guided counterfactual generation
T_CLASS_MAX_FRAC = 0.3


@dataclass(frozen=True)
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
    diffusion_enabled: bool = True   # False: classification-only ablation

    def __post_init__(self):
        counts = (self.total_steps, self.class_start_step, self.batch_diffusion,
                  self.batch_classification)
        if not all(is_count(v) for v in counts):
            raise ConfigInvalid(f"step counts and batch sizes must be integers, got {counts}")
        if self.total_steps < 1:
            raise ConfigInvalid("total_steps must be >= 1")
        if not is_count(self.seed) or not 0 <= self.seed < SEED_LIMIT:
            # rng.stream rejects it too, but only at the first step
            raise ConfigInvalid(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        # a negative or NaN weight would switch the classifier off silently,
        # and a bool here or below would pass as 0.0 or 1.0
        w = self.class_loss_weight
        if not (is_real(w) and np.isfinite(w) and w >= 0):
            raise ConfigInvalid(f"class_loss_weight must be a finite real >= 0, got {w!r}")
        for lr in (self.lr_diffusion, self.lr_classifier):
            if not (is_real(lr) and np.isfinite(lr) and lr > 0):
                raise ConfigInvalid(f"learning rates must be finite reals > 0, got {lr!r}")
        if self.class_start_step >= self.total_steps and self.class_loss_weight > 0:
            raise ConfigInvalid("class_start_step must be < total_steps")
        if not self.diffusion_enabled and self.class_loss_weight <= 0:
            raise ConfigInvalid("both objectives disabled")
        if not self.diffusion_enabled and self.class_start_step > 0:
            # a warm-up step would run neither objective
            raise ConfigInvalid("without diffusion, class_start_step must be 0")
        if self.batch_diffusion < 1 or self.batch_classification < 1:
            raise ConfigInvalid("batch sizes must be >= 1")
        if not (is_real(self.label_fraction) and 0.0 < self.label_fraction <= 1.0):
            raise ConfigInvalid("label_fraction must be a real in (0, 1], "
                                f"got {self.label_fraction!r}")


@dataclass
class TrainStepReport:
    step: int
    diffusion_loss: Optional[float]
    classification_loss: Optional[float]
    total_loss: float


@dataclass
class TrainData:
    """Training arrays: inputs in model space plus multi-hot labels.

    Raises ``ShapeMismatch`` unless the rows line up, and ``ConfigInvalid``
    unless the images are finite and each labeled row's labels are 0 or 1;
    the labels of unlabeled rows are never read.
    """
    z0: np.ndarray              # (N, C, H, W)
    labels: np.ndarray          # (N, K) in {0,1}
    labeled_mask: np.ndarray    # (N,) bool

    def __post_init__(self):
        self.z0 = np.asarray(self.z0, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool)
        shapes = (self.z0.shape, self.labels.shape, self.labeled_mask.shape)
        if ([len(s) for s in shapes] != [4, 2, 1] or self.z0.shape[0] < 1
                or len({s[0] for s in shapes}) != 1):
            raise ShapeMismatch(
                f"need (N, C, H, W) images, (N, K) labels and an (N,) mask with "
                f"N >= 1, got {shapes[0]}, {shapes[1]} and {shapes[2]}")
        # either would surface steps later as TrainingDiverged, or never
        if not np.isfinite(self.z0).all():
            raise ConfigInvalid("images must be finite")
        if not np.isin(self.labels[self.labeled_mask], (0.0, 1.0)).all():
            raise ConfigInvalid("labels of labeled rows must be 0 or 1")

    @property
    def n(self) -> int:
        return self.z0.shape[0]


@dataclass
class TrainSummary:
    reports: list


def _step_count(arrays: dict[str, np.ndarray], key: str) -> int:
    """``arrays[key]`` as a step count; raises ``CheckpointMismatch`` unless
    it is there as a scalar, finite, non-negative whole number."""
    if key not in arrays or arrays[key].shape != ():
        raise CheckpointMismatch(f"checkpoint has no scalar {key!r}")
    step = float(arrays[key])
    if not (np.isfinite(step) and step >= 0 and step.is_integer()):
        raise CheckpointMismatch(f"{key} = {step} is not a step count")
    return int(step)


class Adam:
    """Adaptive moment estimation with per-group learning rates, betas
    ``ADAM_BETAS`` and eps ``ADAM_EPS``."""

    def __init__(self, groups):
        # groups: list of (named_params: dict[str, Tensor], lr)
        self.groups = [(dict(named), float(lr)) for named, lr in groups]
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
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for named, lr in self.groups:
            for name, p in named.items():
                if p.grad is None:
                    continue
                g = p.grad
                self.m[name] = b1 * self.m[name] + (1 - b1) * g
                self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
                mhat = self.m[name] / c1
                vhat = self.v[name] / c2
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def diffusion_loss(model: JointModel, z0_batch: np.ndarray,
                   sched: NoiseSchedule, rng: np.random.Generator) -> Tensor:
    """MSE between drawn noise and the model's prediction at random t."""
    n = z0_batch.shape[0]
    t = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal(z0_batch.shape)
    zt = q_sample(z0_batch, t, eps, sched)
    # the prediction is channel-last; compare against eps transposed to match
    return ad.mse(model.denoise(zt, t), Tensor(eps.transpose(0, 2, 3, 1)))


def classification_loss(model: JointModel, images: np.ndarray, labels: np.ndarray,
                        sched: NoiseSchedule, rng: np.random.Generator,
                        t_max: int) -> Tensor:
    """Per-class BCE on labeled samples noised at t drawn from [1, t_max]."""
    n = images.shape[0]
    if n == 0:
        raise EmptyLabeledBatch("classification batch is empty")
    t = rng.integers(1, t_max + 1, size=n)
    eps = rng.standard_normal(images.shape)
    zt = q_sample(images, t, eps, sched)
    logits = model.classify(zt, t)
    return ad.bce_with_logits(logits, Tensor(labels))


def make_optimizer(model: JointModel, cfg: TrainConfig) -> Adam:
    """Adam over the shared UNet at ``lr_diffusion`` and the classifier head
    (the ``cls.`` parameters) at ``lr_classifier``."""
    head = {k: p for k, p in model.params.items() if k.startswith("cls.")}
    shared = {k: p for k, p in model.params.items() if k not in head}
    return Adam([(shared, cfg.lr_diffusion), (head, cfg.lr_classifier)])


def train_joint(model: JointModel, data: TrainData, cfg: TrainConfig,
                sched: NoiseSchedule,
                on_step: Optional[Callable[[TrainStepReport], None]] = None,
                opt: Optional[Adam] = None, start_step: int = 0) -> TrainSummary:
    """Run the joint loop; deterministic given cfg.seed.

    With ``class_loss_weight == 0`` the classification branch is skipped
    entirely, which makes the run bit-identical to pure diffusion training.
    With ``diffusion_enabled == False`` only the classifier objective runs
    (the "UNet without diffusion" ablation). A run that cannot finish (a
    ``start_step`` past ``cfg.total_steps``, labels that do not match
    ``model.cfg.num_classes``, or no labeled sample for a classification
    step) raises before step 0.
    """
    if not 0 <= start_step <= cfg.total_steps:
        raise ConfigInvalid(f"start_step must lie in [0, {cfg.total_steps}], got {start_step}")
    if data.labels.shape[1] != model.cfg.num_classes:
        raise ShapeMismatch(f"{data.labels.shape[1]} label columns for a "
                            f"{model.cfg.num_classes}-class model")
    labeled_idx = np.flatnonzero(data.labeled_mask)
    # a config with a class weight has class_start_step < total_steps, so
    # every run that has a step left has a classification step
    if cfg.class_loss_weight > 0 and start_step < cfg.total_steps and labeled_idx.size == 0:
        raise EmptyLabeledBatch("no labeled samples in the training set")
    opt = opt or make_optimizer(model, cfg)
    t_class_max = max(1, round(T_CLASS_MAX_FRAC * sched.T))
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
            pick = stream(cfg.seed, "class-batch", step).integers(
                0, labeled_idx.size, cfg.batch_classification)
            cidx = labeled_idx[pick]
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
    """Write the model's parameters under their own names, Adam's moments as
    ``opt.m.<name>`` and ``opt.v.<name>``, its step as ``opt.step`` and the
    training step as ``train.step``."""
    arrays = dict(model.state_arrays())
    for name in opt.m:
        arrays[f"opt.m.{name}"] = opt.m[name]
        arrays[f"opt.v.{name}"] = opt.v[name]
    arrays["opt.step"] = np.asarray(float(opt.t))
    arrays["train.step"] = np.asarray(float(step))
    ad.save_weights(path, arrays)


def load_training_checkpoint(path, model: JointModel, opt: Optional[Adam] = None) -> int:
    """Restore the model, and the optimizer if given; returns the stored step.

    This is the one way to restore a model. Without ``opt`` it reads the
    model's parameters from any checkpoint that holds them, a model-only
    file written by ``ad.save_weights(path, model.state_arrays())``
    included, and returns its ``train.step``, or 0 if it has none. With
    ``opt`` the file must be a training checkpoint: one without
    ``train.step`` or without the optimizer's full state raises
    ``CheckpointMismatch``, so a resume never runs on a fresh Adam. Either
    way, a ``train.step`` or ``opt.step`` that is there must be a finite,
    non-negative whole number. Everything is checked before anything is
    assigned, so a rejected file changes neither the model nor the
    optimizer.
    """
    arrays = ad.load_weights(path)
    steps = {key: _step_count(arrays, key) for key in ("train.step", "opt.step")
             if opt is not None or key in arrays}
    shapes = {name: p.shape for name, p in model.params.items()}
    if opt is not None:
        shapes.update({f"opt.{moment}.{name}": m.shape
                       for name, m in opt.m.items() for moment in "mv"})
    ad.check_shapes(arrays, shapes)
    model.load_state(arrays)
    if opt is not None:
        opt.t = steps["opt.step"]
        # the file is float64; a moment left so would run Adam, and from it
        # the weights, in float64
        for name in opt.m:
            opt.m[name] = arrays[f"opt.m.{name}"].astype(opt.m[name].dtype)
            opt.v[name] = arrays[f"opt.v.{name}"].astype(opt.v[name].dtype)
    return steps.get("train.step", 0)
