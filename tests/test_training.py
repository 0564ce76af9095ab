import numpy as np
import pytest

import jdl.autodiff as ad
from jdl.errors import (CheckpointMismatch, ConfigInvalid, EmptyLabeledBatch, ShapeMismatch,
                        TrainingDiverged)
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream
from jdl.schedule import make_linear_schedule
from jdl.training import (TrainConfig, TrainData, classification_loss, diffusion_loss,
                          load_training_checkpoint, make_optimizer,
                          save_training_checkpoint, train_joint)

from gradcheck import H

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


def test_on_step_sees_each_report_with_its_grads_set():
    model = JointModel.build(CFG, seed=1)
    cfg = _cfg()
    calls = []

    def on_step(report):
        grads = {k: p.grad is not None for k, p in model.params.items()}
        calls.append((report, grads))

    summary = train_joint(model, _data(), cfg, SCHED, on_step=on_step)
    # one call per step, in step order, with the report the summary keeps
    assert [id(r) for r, _ in calls] == [id(r) for r in summary.reports]
    assert [r.step for r, _ in calls] == list(range(cfg.total_steps))
    for report, grads in calls:
        # enc.* and dec.* always; the head's cls.* from class_start_step on
        head_trains = report.step >= cfg.class_start_step
        for name, is_set in grads.items():
            assert is_set == (head_trains or not name.startswith("cls.")), (report.step, name)


def test_classifier_sees_only_labeled_samples():
    data = _data()
    # one classification read of an unlabeled row would make the loss NaN,
    # and train_joint raises TrainingDiverged on a non-finite loss
    data.labels[~data.labeled_mask] = np.nan
    summary = train_joint(JointModel.build(CFG, seed=1), data, _cfg(), SCHED)
    losses = [r.classification_loss for r in summary.reports[_cfg().class_start_step:]]
    assert losses and all(c is not None and np.isfinite(c) for c in losses)


def test_classification_only_leaves_decoder_untouched():
    model = JointModel.build(CFG, seed=1)
    before = {k: v.data.copy() for k, v in model.params.items()}
    summary = train_joint(model, _data(),
                          _cfg(diffusion_enabled=False, class_start_step=0), SCHED)
    assert all(r.diffusion_loss is None for r in summary.reports)
    assert all(r.classification_loss is not None for r in summary.reports)
    changed = {k for k, p in model.params.items() if not np.array_equal(p.data, before[k])}
    assert changed and all(k.startswith(("enc.", "cls.")) for k in changed), changed
    assert any(k.startswith("enc.") for k in changed)


@pytest.mark.parametrize("override", [
    {"class_loss_weight": -0.05}, {"class_loss_weight": np.nan},
    {"class_loss_weight": np.inf}, {"lr_diffusion": -1.0}, {"lr_diffusion": 0.0},
    {"lr_diffusion": np.nan}, {"lr_classifier": -1e-4}, {"lr_classifier": np.inf},
    {"class_loss_weight": True}, {"lr_diffusion": True}, {"lr_classifier": True},
    {"label_fraction": True},
], ids=repr)
def test_config_rejects_bad_weight_and_learning_rates(override):
    # each of these once ran: the bad weights dropped the classifier silently,
    # and a boolean ran as 1.0
    with pytest.raises(ConfigInvalid):
        _cfg(**override)


@pytest.mark.parametrize("override", [
    {"total_steps": 2.5}, {"total_steps": 4.0}, {"class_start_step": 1.0},
    {"batch_diffusion": 2.5}, {"batch_classification": 3.0},
    {"total_steps": True, "class_start_step": 0},
    {"seed": 1.5}, {"seed": True}, {"seed": -1}, {"seed": 2**64},
], ids=repr)
def test_config_rejects_fractional_counts(override):
    # each used to pass construction and die later with a bare TypeError, or,
    # for a boolean, run as 1; a bad seed failed only at the first step or,
    # if negative, ran on the stream of a large one, and 2**64 ran as 0
    with pytest.raises(ConfigInvalid):
        _cfg(**override)


def test_classification_only_rejects_warm_up():
    with pytest.raises(ConfigInvalid):
        train_joint(JointModel.build(CFG, seed=1), _data(),
                    _cfg(diffusion_enabled=False), SCHED)
    # with neither objective on, the config alone is already invalid
    with pytest.raises(ConfigInvalid):
        _cfg(diffusion_enabled=False, class_start_step=0, class_loss_weight=0.0)


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


def test_checkpoint_layout(tmp_path):
    model = JointModel.build(CFG, seed=1)
    opt = make_optimizer(model, _cfg())
    train_joint(model, _data(), _cfg(total_steps=2), SCHED, opt=opt)
    path = tmp_path / "train.jdlw"
    # a step apart from opt.t, so the two keys cannot stand in for each other
    save_training_checkpoint(path, model, opt, 3)
    arrays = ad.load_weights(path)
    names = list(model.params)
    assert set(arrays) == {*names, *(f"opt.{moment}.{name}" for name in names
                                     for moment in "mv"), "opt.step", "train.step"}
    for name, p in model.params.items():
        assert np.array_equal(arrays[name], p.data), name
        assert np.array_equal(arrays[f"opt.m.{name}"], opt.m[name]), name
        assert np.array_equal(arrays[f"opt.v.{name}"], opt.v[name]), name
    assert arrays["opt.step"] == opt.t == 2 and arrays["train.step"] == 3

    # a model-only file restores the weights at step 0
    ad.save_weights(path, model.state_arrays())
    fresh = JointModel.build(CFG, seed=2)
    assert load_training_checkpoint(path, fresh) == 0
    _assert_same_weights(fresh, model)


@pytest.mark.parametrize("drop,shrink", [
    (("opt.", "train."), None),          # a model-only file
    (("train.step",), None),
    (("opt.step",), None),
    (("opt.v.enc.stem.w",), None),
    ((), "opt.m.cls.fc1.w"),
], ids=["model_only", "no_train_step", "no_opt_step", "missing_moment",
        "misshaped_moment"])
def test_resume_rejects_incomplete_optimizer_state(tmp_path, drop, shrink):
    model = JointModel.build(CFG, seed=1)
    opt = make_optimizer(model, _cfg())
    path = tmp_path / "train.jdlw"
    save_training_checkpoint(path, model, opt, 2)
    arrays = {k: v for k, v in ad.load_weights(path).items() if not k.startswith(drop)}
    if shrink:
        arrays[shrink] = np.zeros(3)
    ad.save_weights(path, arrays)
    fresh = JointModel.build(CFG, seed=2)
    with pytest.raises(CheckpointMismatch):
        load_training_checkpoint(path, fresh, make_optimizer(fresh, _cfg()))
    _assert_same_weights(fresh, JointModel.build(CFG, seed=2))
    # without an optimizer, the model weights alone still load
    load_training_checkpoint(path, fresh)


@pytest.mark.parametrize("key,value", [
    ("cls.fc2.b", np.zeros(5)),          # a model parameter, mis-shaped
    ("train.step", np.asarray(np.nan)),
    ("opt.step", np.asarray(np.nan)),
    ("train.step", np.asarray(-4.0)),
    ("train.step", np.asarray(3.7)),
    ("opt.step", np.asarray(2.5)),
], ids=["misshaped_param", "nan_train_step", "nan_opt_step", "negative_train_step",
        "fractional_train_step", "fractional_opt_step"])
def test_rejected_resume_changes_nothing(tmp_path, key, value):
    model = JointModel.build(CFG, seed=1)
    opt = make_optimizer(model, _cfg())
    train_joint(model, _data(), _cfg(total_steps=2), SCHED, opt=opt)
    path = tmp_path / "train.jdlw"
    save_training_checkpoint(path, model, opt, 2)
    arrays = ad.load_weights(path)
    arrays[key] = value
    ad.save_weights(path, arrays)
    fresh = JointModel.build(CFG, seed=2)
    opt2 = make_optimizer(fresh, _cfg())
    with pytest.raises(CheckpointMismatch):
        load_training_checkpoint(path, fresh, opt2)
    with pytest.raises(CheckpointMismatch):
        load_training_checkpoint(path, fresh)
    _assert_same_weights(fresh, JointModel.build(CFG, seed=2))
    assert opt2.t == 0
    assert not any(m.any() or v.any() for m, v in zip(opt2.m.values(), opt2.v.values()))


@pytest.mark.parametrize("z0,labels,mask,error", [
    ((4, 1, 8, 8), (3, 3), (4,), ShapeMismatch),     # labels one row short
    ((4, 1, 8, 8), (4, 3), (6,), ShapeMismatch),     # mask too long
    ((0, 1, 8, 8), (0, 3), (0,), ShapeMismatch),     # no samples
    ((4, 8, 8), (4, 3), (4,), ShapeMismatch),        # images not (N, C, H, W)
    ((4, 1, 8, 8), (4,), (4,), ShapeMismatch),       # labels not (N, K)
    ((4, 1, 8, 8), (4, 3), (4, 1), ShapeMismatch),   # mask not (N,)
    ((4, 1, 8, 8), (4, 3), (4,), ConfigInvalid),     # start_step -1
], ids=["short_labels", "long_mask", "empty", "3d_images", "1d_labels", "2d_mask",
        "negative_start"])
def test_train_rejects_misaligned_data_and_negative_start(z0, labels, mask, error):
    # misaligned rows used to fail mid-step with a bare IndexError, no samples
    # and a negative start with a bare ValueError
    with pytest.raises(error):
        data = TrainData(np.zeros(z0), np.zeros(labels), np.ones(mask, dtype=bool))
        train_joint(JointModel.build(CFG, seed=1), data, _cfg(), SCHED, start_step=-1)


@pytest.mark.parametrize("field,row,value,rejected", [
    ("labels", 0, np.nan, True),
    ("labels", 0, 0.5, True),
    ("z0", 0, np.inf, True),
    ("z0", 1, np.nan, True),        # an unlabeled row's image is still trained on
    ("labels", 1, np.nan, False),   # an unlabeled row's labels are never read
], ids=["nan_label", "half_label", "inf_image", "nan_unlabeled_image", "nan_unlabeled_label"])
def test_train_data_checks_values(field, row, value, rejected):
    # each rejected case used to be accepted, and to surface steps later as
    # TrainingDiverged or not at all
    base = _data()   # rows 0, 3, 6 and 9 are labeled
    arrays = {"z0": base.z0.copy(), "labels": base.labels.copy()}
    arrays[field][row, 0] = value
    if rejected:
        with pytest.raises(ConfigInvalid):
            TrainData(**arrays, labeled_mask=base.labeled_mask)
    else:
        TrainData(**arrays, labeled_mask=base.labeled_mask)


@pytest.mark.parametrize("case", ["five_label_columns", "start_past_end", "no_labeled_sample"])
def test_run_that_cannot_finish_fails_before_step_0(case):
    # each used to train the steps before class_start_step first, or, past
    # the end, to return an empty summary
    base = _data()
    data, cfg, start, error = {
        "five_label_columns": (TrainData(base.z0, np.zeros((12, 5)), base.labeled_mask),
                               _cfg(), 0, ShapeMismatch),
        "start_past_end": (base, _cfg(total_steps=2), 7, ConfigInvalid),
        "no_labeled_sample": (TrainData(base.z0, base.labels, np.zeros(12, dtype=bool)),
                              _cfg(), 0, EmptyLabeledBatch),
    }[case]
    model = JointModel.build(CFG, seed=1)
    with pytest.raises(error):
        train_joint(model, data, cfg, SCHED, start_step=start)
    _assert_same_weights(model, JointModel.build(CFG, seed=1))


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


def _class_term(model: JointModel) -> ad.Tensor:
    data = _data()
    return classification_loss(model, data.z0[3:6], data.labels[3:6], SCHED,
                               stream(3, "class-draw"), t_max=15)


def _joint_loss(model: JointModel) -> ad.Tensor:
    # a train_joint step's total on fixed streams: both terms, weight 0.7
    d_term = diffusion_loss(model, _data().z0[:3], SCHED, stream(3, "diff-draw"))
    return ad.add(d_term, ad.mul(_class_term(model), 0.7))


def _class_only_loss(model: JointModel) -> ad.Tensor:
    # the same with diffusion_enabled=False
    return ad.mul(_class_term(model), 0.7)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("loss_fn,path", [(_joint_loss, ("enc.", "dec.", "cls.")),
                                          (_class_only_loss, ("enc.", "cls."))],
                         ids=["joint", "classification_only"])
def test_parameter_gradients_match_a_directional_difference(loss_fn, path):
    # every parameter of the whole UNet at once: <dL/dtheta, v> against
    # (L(theta + Hv) - L(theta - Hv)) / 2H for one random direction v. At
    # H = 1e-5 the truncation error is about 5e-9 relative (it falls 100-fold
    # for each 10-fold smaller H) and the rounding about 1e-11, while a vjp
    # that drops a term or misroutes a gradient moves the result by far more
    # than the 1e-6 bound. Off the loss's path, nothing gets a gradient.
    model = JointModel.build(CFG, seed=2)
    r = stream(2, "perturb")
    theta = {k: p.data + 0.1 * r.standard_normal(p.shape) for k, p in model.params.items()}
    v = {k: r.standard_normal(p.shape) for k, p in model.params.items()}
    model.load_state(theta)
    ad.backward(loss_fn(model))
    on_path = {k for k in model.params if k.startswith(path)}
    assert {k for k, p in model.params.items()
            if p.grad is not None and np.any(p.grad != 0)} == on_path
    analytic = sum(float(np.vdot(model.params[k].grad, v[k])) for k in on_path)

    def loss_at(step):
        model.load_state({k: theta[k] + step * v[k] for k in theta})
        with ad.no_grad():
            return loss_fn(model).item()

    numeric = (loss_at(H) - loss_at(-H)) / (2 * H)
    assert abs(analytic - numeric) <= 1e-6 * abs(numeric)
