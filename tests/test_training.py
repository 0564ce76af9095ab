import numpy as np
import pytest

import jdl.autodiff as ad
from jdl.errors import TrainingDiverged
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream
from jdl.schedule import make_linear_schedule
from jdl.training import (TrainConfig, TrainData, diffusion_loss,
                          load_training_checkpoint, make_optimizer,
                          save_training_checkpoint, train_joint)

CFG = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=8,
                 time_embed_dim=8, classifier_hidden=16)
SCHED = make_linear_schedule(50, 1e-3, 0.05)
STEPS = 4


def _data() -> TrainData:
    r = np.random.default_rng(0)
    return TrainData(z0=r.standard_normal((12, 1, 8, 8)),
                     labels=(r.random((12, 3)) > 0.5).astype(float),
                     labeled_mask=np.arange(12) % 3 == 0)


def _cfg(**overrides) -> TrainConfig:
    # both objectives on from step 1, so a resume at step 2 crosses neither edge
    kw = dict(total_steps=STEPS, class_start_step=1, batch_diffusion=4,
              batch_classification=3, seed=5)
    kw.update(overrides)
    return TrainConfig(**kw)


def _losses(summary):
    return [(r.diffusion_loss, r.classification_loss, r.total_loss)
            for r in summary.reports]


def _assert_same_weights(a: JointModel, b: JointModel):
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_same_seed_is_bitwise_reproducible():
    runs = []
    for _ in range(2):
        model = JointModel.build(CFG, seed=1)
        runs.append((model, train_joint(model, _data(), _cfg(), SCHED)))
    (m1, s1), (m2, s2) = runs
    assert _losses(s1) == _losses(s2)
    assert all(c is not None for _, c, _ in _losses(s1)[1:])
    _assert_same_weights(m1, m2)

    other = JointModel.build(CFG, seed=1)
    s3 = train_joint(other, _data(), _cfg(seed=6), SCHED)
    assert _losses(s3) != _losses(s1)


def test_resume_from_checkpoint_equals_uninterrupted_run(tmp_path):
    full = JointModel.build(CFG, seed=1)
    straight = train_joint(full, _data(), _cfg(), SCHED)

    k = 2
    first = JointModel.build(CFG, seed=1)
    opt = make_optimizer(first, _cfg())
    train_joint(first, _data(), _cfg(total_steps=k), SCHED, opt=opt)
    path = tmp_path / "train.jdlw"
    save_training_checkpoint(path, first, opt, k)

    resumed = JointModel.build(CFG, seed=99)
    opt2 = make_optimizer(resumed, _cfg())
    assert load_training_checkpoint(path, resumed, opt2) == k
    rest = train_joint(resumed, _data(), _cfg(), SCHED, opt=opt2, start_step=k)

    assert _losses(rest) == _losses(straight)[k:]
    _assert_same_weights(resumed, full)


def test_zero_class_weight_is_pure_diffusion():
    model = JointModel.build(CFG, seed=1)
    cfg = _cfg(class_loss_weight=0.0)
    summary = train_joint(model, _data(), cfg, SCHED)
    assert all(r.classification_loss is None for r in summary.reports)

    # reference: the diffusion objective alone, same streams, same optimizer
    ref = JointModel.build(CFG, seed=1)
    opt = make_optimizer(ref, cfg)
    data = _data()
    losses = []
    for step in range(cfg.total_steps):
        opt.zero_grad()
        idx = stream(cfg.seed, "diff-batch", step).integers(0, data.n, cfg.batch_diffusion)
        loss = diffusion_loss(ref, data.z0[idx], SCHED, stream(cfg.seed, "diff-draw", step))
        losses.append(loss.item())
        ad.backward(loss)
        opt.step()

    assert [r.total_loss for r in summary.reports] == losses
    _assert_same_weights(model, ref)


def test_non_finite_loss_raises():
    model = JointModel.build(CFG, seed=1)
    model.params["enc.stem.w"].data[0, 0, 0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        train_joint(model, _data(), _cfg(), SCHED)
