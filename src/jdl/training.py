"""Joint semi-supervised optimization.

Every step draws a diffusion batch from all samples and, once past the
warmup, a classification batch from the labeled pool only. The step runs one
backward per loss into the same gradient buffers, then a single optimizer
update with separate learning rates for the shared UNet (encoder+decoder)
and the classifier head. The weighted classification term is built and
backpropagated first, the diffusion term after it, so only one loss's graph
is alive at a time. The two graphs share nothing but the weights, and a
parameter gets at most one contribution from each, so its gradient is the
same sum of two floats that one backward of the loss sum would form, bit
for bit.

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


def t_class_max(T: int) -> int:
    """The last timestep the classifier trains on in a T-step schedule: it
    sees noised inputs up to 0.3 T, the noise window later used for guided
    counterfactual generation."""
    return max(1, round(0.3 * T))


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
        if self.class_start_step < 0:
            # it would run as 0
            raise ConfigInvalid(f"class_start_step must be >= 0, got {self.class_start_step}")
        if not isinstance(self.diffusion_enabled, (bool, np.bool_)):
            # a string or a number would switch diffusion on or off by its truth
            raise ConfigInvalid(
                f"diffusion_enabled must be a bool, got {self.diffusion_enabled!r}")
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
    z0: np.ndarray              # (N, 1, S, S)
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
    ``ADAM_BETAS`` and eps ``ADAM_EPS``.

    ``t`` counts each parameter's own updates, by name, as in Kingma & Ba's
    Algorithm 1: a count advances only on a step where its parameter has a
    gradient, so a parameter whose first gradient comes late (the head,
    before ``class_start_step``) gets the bias corrections of a first
    update then, and moves about ``lr`` on it.
    """

    def __init__(self, groups):
        # groups: list of (named_params: dict[str, Tensor], lr)
        self.groups = [(dict(named), float(lr)) for named, lr in groups]
        self.t = {name: 0 for named, _ in self.groups for name in named}
        self.m = {name: np.zeros_like(p.data)
                  for named, _ in self.groups for name, p in named.items()}
        self.v = {name: np.zeros_like(p.data)
                  for named, _ in self.groups for name, p in named.items()}

    def zero_grad(self) -> None:
        for named, _ in self.groups:
            for p in named.values():
                p.grad = None

    def step(self) -> None:
        b1, b2 = ADAM_BETAS
        for named, lr in self.groups:
            for name, p in named.items():
                if p.grad is None:
                    continue
                t = self.t[name] = self.t[name] + 1
                c1 = 1.0 - b1 ** t
                c2 = 1.0 - b2 ** t
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
    return ad.mse(model.denoise(zt, t), eps)


def classification_loss(model: JointModel, images: np.ndarray, labels: np.ndarray,
                        sched: NoiseSchedule, rng: np.random.Generator) -> Tensor:
    """Per-class BCE on labeled samples noised at t drawn from
    [1, t_class_max(T)]."""
    n = images.shape[0]
    if n == 0:
        raise EmptyLabeledBatch("classification batch is empty")
    t = rng.integers(1, t_class_max(sched.T) + 1, size=n)
    eps = rng.standard_normal(images.shape)
    zt = q_sample(images, t, eps, sched)
    logits = model.classify(zt, t)
    return ad.bce_with_logits(logits, labels)


def _finite(loss: float, step: int) -> float:
    if not np.isfinite(loss):
        raise TrainingDiverged(f"loss became {loss} at step {step}")
    return loss


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
    ``model.cfg.num_classes``, no labeled sample for a classification
    step, or an ``opt`` that does not hold exactly ``model.params``) raises
    before step 0.

    Each step runs two backwards into the same ``.grad`` buffers: first the
    weighted classification term's, as soon as that term is built, then the
    diffusion term's, built only after the first graph is freed. The
    terms' graphs share only the weights, and each parameter gets at most
    one contribution from each, so every gradient is bitwise that of one
    backward of ``ad.add(d_term, ad.mul(c_term, class_loss_weight))``.
    ``total_loss`` is the sum of the two terms' data, as that sum's forward
    computes it.

    A step whose loss is not finite raises ``TrainingDiverged`` before
    ``opt.step()``: the weighted classification term is checked before its
    backward, and the total before the diffusion backward. On a raise the
    weights, the Adam moments and the step counts are those of the last
    finished step; only the ``.grad`` buffers may hold a partial gradient.
    """
    if not is_count(start_step) or not 0 <= start_step <= cfg.total_steps:
        raise ConfigInvalid(
            f"start_step must be an integer in [0, {cfg.total_steps}], got {start_step!r}")
    if data.labels.shape[1] != model.cfg.num_classes:
        raise ShapeMismatch(f"{data.labels.shape[1]} label columns for a "
                            f"{model.cfg.num_classes}-class model")
    labeled_idx = np.flatnonzero(data.labeled_mask)
    # a config with a class weight has class_start_step < total_steps, so
    # every run that has a step left has a classification step
    if cfg.class_loss_weight > 0 and start_step < cfg.total_steps and labeled_idx.size == 0:
        raise EmptyLabeledBatch("no labeled samples in the training set")
    if opt is None:
        opt = make_optimizer(model, cfg)
    elif (sorted((k, id(p)) for named, _ in opt.groups for k, p in named.items())
          != sorted((k, id(p)) for k, p in model.params.items())):
        # another model's optimizer would step that model's tensors instead
        raise ConfigInvalid("opt must hold exactly model.params, each under its own name")
    summary = TrainSummary(reports=[])

    for step in range(start_step, cfg.total_steps):
        opt.zero_grad()
        d_term = None
        c_term = None
        weighted = None

        if cfg.class_loss_weight > 0 and step >= cfg.class_start_step:
            pick = stream(cfg.seed, "class-batch", step).integers(
                0, labeled_idx.size, cfg.batch_classification)
            cidx = labeled_idx[pick]
            c_term = classification_loss(model, data.z0[cidx], data.labels[cidx],
                                         sched, stream(cfg.seed, "class-draw", step))
            weighted = ad.mul(c_term, cfg.class_loss_weight)
            total_val = _finite(weighted.item(), step)
            ad.backward(weighted)

        if cfg.diffusion_enabled:
            idx = stream(cfg.seed, "diff-batch", step).integers(0, data.n, cfg.batch_diffusion)
            d_term = diffusion_loss(model, data.z0[idx], sched,
                                    stream(cfg.seed, "diff-draw", step))
            # the add that the forward of ad.add(d_term, weighted) runs
            total = d_term.data if weighted is None else d_term.data + weighted.data
            total_val = _finite(float(total), step)
            ad.backward(d_term)
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
    ``opt.m.<name>`` and ``opt.v.<name>``, its update counts as
    ``opt.t.<name>`` and the training step as ``train.step``."""
    arrays = dict(model.state_arrays())
    for name in opt.m:
        arrays[f"opt.m.{name}"] = opt.m[name]
        arrays[f"opt.v.{name}"] = opt.v[name]
        arrays[f"opt.t.{name}"] = np.asarray(float(opt.t[name]))
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
    way, a ``train.step`` or an ``opt.t.<name>`` count of a model parameter
    that is there must be a finite, non-negative whole number, and every
    array that is read must be finite.
    Everything is checked before anything is assigned, so a rejected file
    changes neither the model nor the optimizer.
    """
    arrays = ad.load_weights(path)
    counted = model.params if opt is None else opt.t
    keys = ["train.step", *(f"opt.t.{name}" for name in counted)]
    steps = {key: _step_count(arrays, key) for key in keys
             if opt is not None or key in arrays}
    shapes = {name: p.shape for name, p in model.params.items()}
    if opt is not None:
        shapes.update({f"opt.{moment}.{name}": m.shape
                       for name, m in opt.m.items() for moment in "mv"})
    ad.check_shapes(arrays, shapes)
    # a NaN weight would load without a word and make every prediction NaN
    bad = [name for name in shapes if not np.isfinite(arrays[name]).all()]
    if bad:
        raise CheckpointMismatch(f"non-finite values in {bad[:3]}")
    model.load_state(arrays)
    if opt is not None:
        opt.t = {name: steps[f"opt.t.{name}"] for name in opt.t}
        # the file is float64; a moment left so would run Adam, and from it
        # the weights, in float64
        for name in opt.m:
            opt.m[name] = arrays[f"opt.m.{name}"].astype(opt.m[name].dtype)
            opt.v[name] = arrays[f"opt.v.{name}"].astype(opt.v[name].dtype)
    return steps.get("train.step", 0)
