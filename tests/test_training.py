import numpy as np
import pytest

import jdl.autodiff as ad
from jdl.errors import (CheckpointMismatch, ConfigInvalid, EmptyLabeledBatch, ShapeMismatch,
                        TrainingDiverged)
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream
from jdl.sampling import GuidanceConfig, guided_epsilon
from jdl.schedule import make_linear_schedule
from jdl.training import (ADAM_EPS, Adam, TrainConfig, TrainData, classification_loss,
                          diffusion_loss, load_training_checkpoint, make_optimizer,
                          save_training_checkpoint, t_class_max, train_joint)

from gradcheck import H, traced

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


def _perturbed(cfg: UNetConfig = CFG) -> JointModel:
    # a built model's dec.out and cls.fc2 are zero, and so are the gradients
    # behind them; noise on every weight gives each one a gradient
    model = JointModel.build(cfg, seed=1)
    r = stream(2, "perturb")
    model.load_state({k: p.data + 0.1 * r.standard_normal(p.shape)
                      for k, p in model.params.items()})
    return model


def _state(model: JointModel, opt: Adam) -> dict:
    """The bytes of every weight and Adam moment, and the update counts."""
    arrays = {**{k: p.data for k, p in model.params.items()},
              **{f"m.{k}": m for k, m in opt.m.items()},
              **{f"v.{k}": v for k, v in opt.v.items()}}
    return {"t": dict(opt.t), **{k: a.tobytes() for k, a in arrays.items()}}


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
    {"label_fraction": True}, {"diffusion_enabled": "no"}, {"diffusion_enabled": 1},
], ids=repr)
def test_config_rejects_bad_weight_and_learning_rates(override):
    # each of these once ran: the bad weights dropped the classifier silently,
    # a boolean ran as 1.0, and a diffusion_enabled that is not a bool
    # switched diffusion by its truth, so "no" trained it
    with pytest.raises(ConfigInvalid):
        _cfg(**override)


@pytest.mark.parametrize("override", [
    {"total_steps": 2.5}, {"total_steps": 4.0}, {"class_start_step": 1.0},
    {"batch_diffusion": 2.5}, {"batch_classification": 3.0},
    {"total_steps": True, "class_start_step": 0},
    {"seed": 1.5}, {"seed": True}, {"seed": -1}, {"seed": 2**64},
    {"class_start_step": -3},
], ids=repr)
def test_config_rejects_fractional_counts(override):
    # each used to pass construction and die later with a bare TypeError, or,
    # for a boolean, run as 1; a bad seed failed only at the first step or,
    # if negative, ran on the stream of a large one, and 2**64 ran as 0. A
    # negative class_start_step ran as 0
    with pytest.raises(ConfigInvalid):
        _cfg(**override)


def test_config_takes_a_numpy_bool():
    cfg = _cfg(diffusion_enabled=np.False_, class_start_step=0, total_steps=1)
    summary = train_joint(JointModel.build(CFG, seed=1), _data(), cfg, SCHED)
    assert all(r.diffusion_loss is None for r in summary.reports)


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


@pytest.mark.parametrize("k", [1, 3], ids=["before_the_head_starts", "after_it_starts"])
def test_resume_across_a_late_head_start_equals_uninterrupted_run(tmp_path, k):
    # the head starts at step 2, so its update counts lag the others' by 2
    cfg = _cfg(class_start_step=2)
    path = tmp_path / "train.jdlw"
    full = JointModel.build(CFG, seed=1)
    opt = make_optimizer(full, cfg)

    def save_at_k(report):
        if report.step == k - 1:
            save_training_checkpoint(path, full, opt, k)

    straight = train_joint(full, _data(), cfg, SCHED, on_step=save_at_k, opt=opt)
    resumed = JointModel.build(CFG, seed=99)
    opt2 = make_optimizer(resumed, cfg)
    assert load_training_checkpoint(path, resumed, opt2) == k
    rest = train_joint(resumed, _data(), cfg, SCHED, opt=opt2, start_step=k)

    assert _losses(rest) == _losses(straight)[k:]
    assert _state(resumed, opt2) == _state(full, opt)
    assert (opt.t["enc.stem.w"], opt.t["cls.fc2.b"]) == (STEPS, STEPS - 2)


def test_a_late_starting_head_moves_lr_on_its_first_update():
    # Adam's bias corrections count the head's own updates, so its first one,
    # at class_start_step 2, moves each weight by lr * g / (|g| + eps), like
    # any parameter's first update; counted from step 0 it would move about
    # 0.64 lr
    cfg = _cfg(class_start_step=2, total_steps=3, lr_classifier=1e-2)
    model = _perturbed()
    seen = {}

    def on_step(report):
        seen[report.step] = {k: (p.data.copy(), p.grad) for k, p in model.params.items()
                             if k.startswith("cls.")}

    train_joint(model, _data(), cfg, SCHED, on_step=on_step)
    assert all(g is None for _, g in seen[1].values())
    for name, (after, g) in seen[2].items():
        before = seen[1][name][0].astype(np.float64)
        assert np.abs(g).max() > 1e-3, name
        expect = before - cfg.lr_classifier * g / (np.abs(g) + ADAM_EPS)
        assert np.abs(after - expect).max() <= 1e-6, name


def test_checkpoint_layout(tmp_path):
    model = JointModel.build(CFG, seed=1)
    opt = make_optimizer(model, _cfg())
    train_joint(model, _data(), _cfg(total_steps=2), SCHED, opt=opt)
    path = tmp_path / "train.jdlw"
    # a step apart from the counts, so the keys cannot stand in for each other
    save_training_checkpoint(path, model, opt, 3)
    arrays = ad.load_weights(path)
    names = list(model.params)
    assert set(arrays) == {*names, *(f"opt.{part}.{name}" for name in names
                                     for part in "mvt"), "train.step"}
    for name, p in model.params.items():
        assert np.array_equal(arrays[name], p.data), name
        assert np.array_equal(arrays[f"opt.m.{name}"], opt.m[name]), name
        assert np.array_equal(arrays[f"opt.v.{name}"], opt.v[name]), name
        # class_start_step 1: the head has had one update, everything else two
        assert arrays[f"opt.t.{name}"] == opt.t[name] == (1 if name.startswith("cls.") else 2)
    assert arrays["train.step"] == 3

    # a model-only file restores the weights at step 0
    ad.save_weights(path, model.state_arrays())
    fresh = JointModel.build(CFG, seed=2)
    assert load_training_checkpoint(path, fresh) == 0
    _assert_same_weights(fresh, model)


@pytest.mark.parametrize("drop,swap", [
    (("opt.", "train."), {}),          # a model-only file
    (("train.step",), {}),
    (("opt.t.cls.fc2.b",), {}),
    (("opt.v.enc.stem.w",), {}),
    ((), {"opt.m.cls.fc1.w": np.zeros(3)}),
    ((), {"opt.v.enc.stem.w": np.full((3, 3, 1, 8), np.inf)}),
], ids=["model_only", "no_train_step", "no_opt_step", "missing_moment",
        "misshaped_moment", "inf_moment"])
def test_resume_rejects_incomplete_optimizer_state(tmp_path, drop, swap):
    model = JointModel.build(CFG, seed=1)
    opt = make_optimizer(model, _cfg())
    path = tmp_path / "train.jdlw"
    save_training_checkpoint(path, model, opt, 2)
    arrays = {k: v for k, v in ad.load_weights(path).items() if not k.startswith(drop)}
    arrays.update(swap)
    ad.save_weights(path, arrays)
    fresh = JointModel.build(CFG, seed=2)
    fresh_opt = make_optimizer(fresh, _cfg())
    with pytest.raises(CheckpointMismatch):
        load_training_checkpoint(path, fresh, fresh_opt)
    blank = JointModel.build(CFG, seed=2)
    assert _state(fresh, fresh_opt) == _state(blank, make_optimizer(blank, _cfg()))
    # without an optimizer, the model weights alone still load: no moment is read
    load_training_checkpoint(path, fresh)
    _assert_same_weights(fresh, model)


@pytest.mark.parametrize("key,value", [
    ("cls.fc2.b", np.zeros(5)),          # a model parameter, mis-shaped
    ("cls.fc2.b", np.array([0.0, np.nan, 0.0])),   # used to load, and predict NaN
    ("train.step", np.asarray(np.nan)),
    ("opt.t.enc.stem.w", np.asarray(np.nan)),
    ("train.step", np.asarray(-4.0)),
    ("train.step", np.asarray(3.7)),
    ("opt.t.cls.fc2.b", np.asarray(2.5)),
    ("opt.t.dec.out.w", np.asarray(-1.0)),
    ("opt.t.dec.out.w", np.zeros(1)),
], ids=["misshaped_param", "nan_param", "nan_train_step", "nan_opt_step",
        "negative_train_step", "fractional_train_step", "fractional_opt_step",
        "negative_opt_step", "non_scalar_opt_step"])
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
    blank = JointModel.build(CFG, seed=2)
    assert _state(fresh, opt2) == _state(blank, make_optimizer(blank, _cfg()))


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


@pytest.mark.parametrize("case", ["five_label_columns", "start_past_end", "no_labeled_sample",
                                  "fractional_start", "boolean_start"])
def test_run_that_cannot_finish_fails_before_step_0(case):
    # each used to train the steps before class_start_step first, or, past
    # the end, to return an empty summary; a fractional start raised a bare
    # TypeError, and True ran from step 1
    base = _data()
    data, cfg, start, error = {
        "five_label_columns": (TrainData(base.z0, np.zeros((12, 5)), base.labeled_mask),
                               _cfg(), 0, ShapeMismatch),
        "start_past_end": (base, _cfg(total_steps=2), 7, ConfigInvalid),
        "fractional_start": (base, _cfg(), 1.5, ConfigInvalid),
        "boolean_start": (base, _cfg(), True, ConfigInvalid),
        "no_labeled_sample": (TrainData(base.z0, base.labels, np.zeros(12, dtype=bool)),
                              _cfg(), 0, EmptyLabeledBatch),
    }[case]
    model = JointModel.build(CFG, seed=1)
    with pytest.raises(error):
        train_joint(model, data, cfg, SCHED, start_step=start)
    _assert_same_weights(model, JointModel.build(CFG, seed=1))


@pytest.mark.parametrize("groups", [
    lambda p: [JointModel.build(CFG, seed=1).params],
    lambda p: [{k: v for k, v in p.items() if k != "cls.fc2.b"}],
    lambda p: [{**p, "enc.stem.w": p["enc.stem.b"], "enc.stem.b": p["enc.stem.w"]}],
    lambda p: [p, {"cls.fc2.b": p["cls.fc2.b"]}],
], ids=["other_model", "missing_tensor", "swapped_names", "tensor_in_two_groups"])
def test_train_rejects_an_optimizer_over_other_tensors(groups):
    # each used to run: an Adam over another model's tensors stepped those and
    # left this model's weights as they were, with their .grads stale; one
    # over swapped names kept each moment under the other tensor's name
    model = JointModel.build(CFG, seed=1)
    opt = Adam([(named, 1e-4) for named in groups(model.params)])
    with pytest.raises(ConfigInvalid):
        train_joint(model, _data(), _cfg(), SCHED, opt=opt)
    _assert_same_weights(model, JointModel.build(CFG, seed=1))
    assert all(p.grad is None for p in model.params.values())


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


def test_two_backwards_give_the_gradients_of_one_backward_of_the_sum():
    # a joint step backpropagates the weighted classification term, then the
    # diffusion term; one backward of their sum on the same streams, over a
    # copy of the model, must give every gradient and the total bitwise
    cfg = _cfg(total_steps=2)
    model, ref = _perturbed(), _perturbed()
    grads = {}

    def on_step(report):
        grads.update({k: p.grad.copy() for k, p in model.params.items()})

    summary = train_joint(model, _data(), cfg, SCHED, on_step=on_step, start_step=1)

    data, step = _data(), 1
    idx = stream(cfg.seed, "diff-batch", step).integers(0, data.n, cfg.batch_diffusion)
    d_term = diffusion_loss(ref, data.z0[idx], SCHED, stream(cfg.seed, "diff-draw", step))
    labeled = np.flatnonzero(data.labeled_mask)
    cidx = labeled[stream(cfg.seed, "class-batch", step).integers(
        0, labeled.size, cfg.batch_classification)]
    c_term = classification_loss(ref, data.z0[cidx], data.labels[cidx], SCHED,
                                 stream(cfg.seed, "class-draw", step))
    total = ad.add(d_term, ad.mul(c_term, cfg.class_loss_weight))
    ad.backward(total)

    assert summary.reports[0].total_loss == total.item()
    assert grads.keys() == ref.params.keys()
    for name, p in ref.params.items():
        assert np.array_equal(grads[name], p.grad), name


def test_a_diverged_step_changes_no_weight_moment_or_count():
    # a NaN in the decoder's last bias makes the diffusion term NaN while the
    # classification term stays finite, so the step fails after the
    # classification backward has written .grad, and before opt.step()
    model = _perturbed()
    opt = make_optimizer(model, _cfg())
    train_joint(model, _data(), _cfg(total_steps=2), SCHED, opt=opt)
    model.params["dec.out.b"].data[0] = np.nan
    before = _state(model, opt)
    with pytest.raises(TrainingDiverged):
        train_joint(model, _data(), _cfg(), SCHED, opt=opt, start_step=2)
    assert model.params["cls.fc2.b"].grad is not None
    assert _state(model, opt) == before


def test_a_joint_step_holds_one_loss_graph_at_a_time():
    # the classification graph is freed by its backward before the diffusion
    # graph is built, so a joint step peaks about where the diffusion term
    # alone does; both graphs alive until one backward would peak 14 % higher
    unet = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=16,
                      time_embed_dim=8, classifier_hidden=16)
    r = np.random.default_rng(1)
    data = TrainData(z0=r.standard_normal((16, 1, 16, 16)),
                     labels=(r.random((16, 3)) > 0.5).astype(float),
                     labeled_mask=np.arange(16) % 2 == 0)

    def peak(weight: float) -> int:
        cfg = TrainConfig(total_steps=2, class_start_step=1, batch_diffusion=8,
                          batch_classification=8, class_loss_weight=weight)
        model = _perturbed(unet)
        opt = make_optimizer(model, cfg)
        train_joint(model, data, cfg, SCHED, opt=opt)      # warm-up
        summary, _, step_peak = traced(
            lambda: train_joint(model, data, cfg, SCHED, opt=opt, start_step=1))
        assert (summary.reports[0].classification_loss is None) == (weight == 0)
        return step_peak

    assert peak(0.05) <= 1.05 * peak(0.0)


def test_primitive_counts_of_a_step():
    # a conv adds its own bias, so no step runs an add per conv; each count
    # was 17 adds higher for an epsilon and 26 for a train step with one.
    # group_norm runs its SiLU, so each total was also 11 silus higher for
    # an epsilon and 17 for a train step. A linear layer adds its bias in
    # its matmul, and a block's first conv adds its time shift, so the only
    # adds left are the residual joins; each total was also higher by 13
    # adds and 5 reshapes for a guided epsilon, 11 and 5 for an unguided
    # one, and 20 and 8 for a train step. The decoder's up conv upsamples
    # its own input, so each total was also one upsample_nearest higher
    def count(f) -> tuple:
        with ad.op_count() as ops:
            f()
        return sum(ops.values()), ops["add"], ops["conv2d"]

    model = JointModel.build(CFG, seed=1)
    z = np.zeros((2, 1, 8, 8))
    guided = GuidanceConfig(target_class=1, scale=1.0)
    assert count(lambda: guided_epsilon(model, z, 5, guided, SCHED)) == (52, 5, 17)
    assert count(lambda: guided_epsilon(model, z, 5, GuidanceConfig(), SCHED)) == (44, 5, 17)
    step = TrainConfig(total_steps=1, class_start_step=0, batch_diffusion=4,
                       batch_classification=3, seed=5)
    assert count(lambda: train_joint(model, _data(), step, SCHED)) == (76, 8, 26)


def test_t_class_max_is_the_classifier_window():
    # 0.3 T and at least 1; SCHED's T of 50 gives 15
    assert (t_class_max(1000), t_class_max(50), t_class_max(1)) == (300, 15, 1)


def _class_term(model: JointModel) -> ad.Tensor:
    data = _data()
    return classification_loss(model, data.z0[3:6], data.labels[3:6], SCHED,
                               stream(3, "class-draw"))


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
