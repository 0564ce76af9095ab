import numpy as np
import pytest

import jdl.autodiff as ad
from jdl.errors import (CheckpointMismatch, ConfigInvalid, GraphConsumed, ShapeMismatch,
                        TimestepOutOfRange)
from jdl.model import JointModel, UNetConfig, time_embedding
from jdl.rng import stream
from jdl.schedule import make_linear_schedule, q_sample
from jdl.training import diffusion_loss, load_training_checkpoint

from gradcheck import numeric_grad

SMALL = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=8,
                   time_embed_dim=8, classifier_hidden=16, num_classes=3)


@pytest.fixture(scope="module")
def model():
    return JointModel.build(SMALL, seed=7)


@pytest.mark.parametrize("override", [
    {"channel_multipliers": ()}, {"channel_multipliers": (1, 0)},
    {"time_embed_dim": 0}, {"image_side": 0}, {"image_side": 10},
    {"base_channels": 10}, {"base_channels": 4}, {"num_classes": 0},
    {"base_channels": 8.0}, {"channel_multipliers": (1.5, 2)}, {"input_channels": 1.0},
    {"time_embed_dim": 8.0}, {"image_side": 32.0}, {"num_classes": 3.0},
    {"classifier_hidden": 16.5}, {"channel_multipliers": (True, True)},
    {"image_side": True, "channel_multipliers": (1,)},
], ids=repr)
def test_config_rejects_unbuildable_sizes(override):
    # each used to fail only at build or at the first forward (a bare
    # TypeError for a fractional size), or not at all
    with pytest.raises(ConfigInvalid):
        UNetConfig(**override)


def test_time_embedding_zero_and_one():
    e0 = time_embedding(0, 6, 2)
    assert np.allclose(e0[:, 0::2], 0.0) and np.allclose(e0[:, 1::2], 1.0)
    e1 = time_embedding(1, 2, 1)
    assert np.allclose(e1, [[np.sin(1.0), np.cos(1.0)]])


def test_time_embedding_rejects_odd_dim():
    with pytest.raises(ConfigInvalid):
        time_embedding(3, 5, 1)


def test_time_embedding_distinct_over_full_range():
    T = 200
    rows = time_embedding(np.arange(1, T + 1), 64, T)
    assert len(np.unique(rows, axis=0)) == T


@pytest.mark.parametrize("t", [np.array([1, 2, 3]), np.ones((4, 1), dtype=np.int64)],
                         ids=["length_3", "shape_4x1"])
def test_timesteps_that_do_not_fit_the_batch_raise(model, t):
    # each used to fail with a bare ValueError from np.broadcast_to
    z = np.zeros((4, 1, 8, 8))
    for call in (model.denoise, model.predict_noise, model.classify,
                 lambda z, t: model.class_score_grad(z, t, 0)):
        with pytest.raises(TimestepOutOfRange):
            call(z, t)


@pytest.mark.parametrize("t", [np.nan, 2.5, -3, 1.0, np.array([1, -1]), np.array([1.0, 2.0])],
                         ids=repr)
def test_timesteps_must_be_whole_numbers(model, t):
    # NaN used to give all-NaN class probabilities; 2.5 and -3 passed silently
    z = np.zeros((2, 1, 8, 8))
    for call in (model.class_probs, model.predict_noise):
        with pytest.raises(TimestepOutOfRange):
            call(z, t)


def test_zero_init_head_gives_zero_noise(model):
    z = np.random.default_rng(0).standard_normal((2, 1, 8, 8))
    assert np.array_equal(model.denoise(z, 3).data, np.zeros((2, 8, 8, 1)))


def test_output_shape_matches_input():
    cfg = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=16,
                     time_embed_dim=8, classifier_hidden=16)
    m = JointModel.build(cfg, seed=1)
    z = np.zeros((4, 1, 16, 16))
    assert m.denoise(z, np.array([1, 2, 3, 4])).shape == (4, 16, 16, 1)
    assert m.predict_noise(z, 1).shape == z.shape


def test_feature_dimension_spec_case():
    # base 32, multipliers [1,2,4], 32x32 input: bottleneck 8x8x128,
    # pooled by 2 -> 4*4*128 = 2048
    cfg = UNetConfig(base_channels=32, channel_multipliers=(1, 2, 4),
                     image_side=32)
    m = JointModel.build(cfg, seed=0)
    assert m.params["cls.fc1.w"].shape[0] == 2048
    # the head's first matmul would raise ShapeMismatch on any other width
    assert m.classify(np.zeros((1, 1, 32, 32)), 1).shape == (1, 3)


def test_initial_weights_follow_their_init_rule():
    # He-normal over fan-in, except the zero-initialised output layers
    m = JointModel.build(UNetConfig(), seed=0)
    for name, p in m.params.items():
        w = p.data
        if name in ("dec.out.w", "cls.fc2.w") or name.endswith(".b"):
            assert not w.any(), name
        elif name.endswith(".g"):
            assert np.array_equal(w, np.ones_like(w)), name
        else:
            fan_in = np.prod(w.shape[:-1])
            assert abs(w.std() / np.sqrt(2.0 / fan_in) - 1) < 0.05, name


def test_forward_creates_no_parameter(model):
    names = list(model.params)
    model.denoise(np.zeros((1, 1, 8, 8)), 2)
    model.class_score_grad(np.zeros((1, 1, 8, 8)), 2, 0)
    assert list(model.params) == names


def test_missing_parameter_raises_key_error():
    params = dict(JointModel.build(SMALL, seed=0).params)
    del params["dec.s0.skip.w"]
    with pytest.raises(KeyError):
        JointModel(SMALL, params).denoise(np.zeros((1, 1, 8, 8)), 1)


def test_odd_bottleneck_is_not_pooled():
    # side 6 over (1, 2) leaves a 3x3x16 bottleneck: 144 features, unpooled
    cfg = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=6,
                     time_embed_dim=8, classifier_hidden=16)
    m = JointModel.build(cfg, seed=0)
    assert m.params["cls.fc1.w"].shape == (144, 16)
    with ad.op_count() as ops:
        logits = m.classify(np.zeros((2, 1, 6, 6)), 3)
    assert logits.shape == (2, 3) and "avg_pool2d" not in ops


def test_zero_init_classifier_probs_half(model):
    z = np.random.default_rng(1).standard_normal((3, 1, 8, 8))
    probs = model.class_probs(z, 2)
    assert np.allclose(probs, 0.5)


def test_classifier_finite_at_max_noise(model):
    z = np.random.default_rng(2).standard_normal((2, 1, 8, 8))
    logits = model.classify(z, 200)
    assert np.isfinite(logits.data).all()


def test_rejects_wrong_input_shape(model):
    with pytest.raises(ShapeMismatch):
        model.denoise(np.zeros((1, 1, 4, 4)), 1)
    # the width is checked as well as the height, before any layer runs
    for bad in (np.zeros((1, 1, 8, 4)), np.zeros((1, 1, 4, 8))):
        for run in (model.denoise, model.predict_noise, model.class_probs,
                    lambda z, t: model.class_score_grad(z, t, 0)):
            with pytest.raises(ShapeMismatch, match="does not match config"):
                run(bad, 1)


def test_parameter_sharing_sensitivity():
    m = JointModel.build(SMALL, seed=3)
    # give the heads non-zero weights so both outputs react to the encoder
    r = np.random.default_rng(0)
    # through load_state, which keeps each parameter's dtype: a float64 array
    # assigned to .data would run the graph in float64
    m.load_state({**m.state_arrays(),
                  "dec.out.w": 0.1 * r.standard_normal(m.params["dec.out.w"].shape),
                  "cls.fc2.w": 0.1 * r.standard_normal(m.params["cls.fc2.w"].shape)})
    z = r.standard_normal((1, 1, 8, 8))
    eps0 = m.predict_noise(z, 2)
    log0 = m.class_probs(z, 2)
    m.load_state({**m.state_arrays(), "enc.stem.w": m.params["enc.stem.w"].data + 0.05})
    assert not np.array_equal(m.predict_noise(z, 2), eps0)
    assert not np.array_equal(m.class_probs(z, 2), log0)


# At one channel NCHW and NHWC hold the same bytes, so only a model with two
# can tell a layout transpose from a reshape
TWO_CHANNELS = UNetConfig(input_channels=2, base_channels=8, channel_multipliers=(1, 2),
                          image_side=8, time_embed_dim=8, classifier_hidden=16)


def _two_channel_model() -> JointModel:
    m = JointModel.build(TWO_CHANNELS, seed=8)
    r = stream(8, "perturb")
    m.load_state({k: p.data + 0.05 * r.standard_normal(p.shape) for k, p in m.params.items()})
    return m


def test_input_channel_cut_off_at_the_stem_reaches_no_output():
    m = _two_channel_model()
    m.params["enc.stem.w"].data[:, :, 1, :] = 0.0
    z = stream(9, "z").standard_normal((2, 2, 8, 8))
    moved = z.copy()
    moved[:, 1] += 1.0
    assert np.array_equal(m.predict_noise(moved, 3), m.predict_noise(z, 3))
    assert np.array_equal(m.class_probs(moved, 3), m.class_probs(z, 3))
    # channel 0 still reaches both, so the checks above are not vacuous
    moved[:, 0] += 1.0
    assert not np.array_equal(m.predict_noise(moved, 3), m.predict_noise(z, 3))
    assert not np.array_equal(m.class_probs(moved, 3), m.class_probs(z, 3))


def test_output_channel_cut_off_at_the_head_is_zero():
    m = _two_channel_model()
    m.params["dec.out.w"].data[..., 1] = 0.0
    m.params["dec.out.b"].data[1] = 0.0
    eps = m.predict_noise(stream(10, "z").standard_normal((2, 2, 8, 8)), 3)
    assert np.all(eps[:, 1] == 0.0) and np.abs(eps[:, 0]).min() > 0


@pytest.mark.usefixtures("float64")
def test_diffusion_loss_is_the_channel_first_mse():
    m = _two_channel_model()
    z0 = stream(11, "z0").standard_normal((3, 2, 8, 8))
    sched = make_linear_schedule(20, 1e-3, 0.1)
    loss = diffusion_loss(m, z0, sched, stream(11, "draw")).item()
    # the same draws, in the order diffusion_loss makes them
    rng = stream(11, "draw")
    t = rng.integers(1, sched.T + 1, size=3)
    eps = rng.standard_normal(z0.shape)
    ref = np.mean((m.predict_noise(q_sample(z0, t, eps, sched), t) - eps) ** 2)
    assert abs(loss - ref) <= 1e-12 * ref


def test_classifier_invariant_to_decoder_weights():
    m = JointModel.build(SMALL, seed=4)
    z = np.random.default_rng(3).standard_normal((2, 1, 8, 8))
    before = m.class_probs(z, 5)
    m.load_state({k: p.data + 1.0 if k.startswith("dec.") else p.data
                  for k, p in m.params.items()})
    assert np.array_equal(m.class_probs(z, 5), before)


@pytest.mark.usefixtures("float64")
def test_classifier_input_gradient_matches_finite_differences():
    m = JointModel.build(SMALL, seed=5)
    r = np.random.default_rng(5)
    m.load_state({**m.state_arrays(),
                  "cls.fc2.w": 0.3 * r.standard_normal(m.params["cls.fc2.w"].shape)})
    z0 = r.standard_normal((1, 1, 8, 8))
    k = 1
    grad = m.class_score_grad(z0, 4, class_idx=k, toward=True)
    assert grad.shape == z0.shape

    coords = np.random.default_rng(6).choice(z0.size, size=20, replace=False)
    numeric = numeric_grad(lambda z: np.log(m.class_probs(z, 4)[0, k]), z0, coords)
    err = np.abs(grad.reshape(-1)[coords] - numeric) / np.maximum(1e-8, np.abs(numeric))
    assert err.max() < 1e-4


def test_encoding_serves_one_backward_at_its_own_t():
    m = JointModel.build(SMALL, seed=5)
    enc = m.encode(np.random.default_rng(8).standard_normal((2, 1, 8, 8)), 3)
    with pytest.raises(TimestepOutOfRange):
        m.predict_noise(enc, 4)
    m.class_score_grad(enc, 3, 0)
    with pytest.raises(GraphConsumed):
        m.class_score_grad(enc, 3, 1)


def test_class_score_grad_rejects_bad_index():
    m = JointModel.build(SMALL, seed=5)
    # a fractional or boolean index used to score class 1
    for k in (7, 1.5, True):
        with pytest.raises(ConfigInvalid):
            m.class_score_grad(np.zeros((1, 1, 8, 8)), 1, class_idx=k)


def test_save_load_roundtrip(tmp_path, model):
    path = tmp_path / "model.jdlw"
    ad.save_weights(path, model.state_arrays())
    other = JointModel.build(SMALL, seed=99)
    load_training_checkpoint(path, other)
    z = np.random.default_rng(7).standard_normal((1, 1, 8, 8))
    assert np.array_equal(other.predict_noise(z, 3), model.predict_noise(z, 3))


def test_load_rejects_shape_mismatch(tmp_path, model):
    path = tmp_path / "model.jdlw"
    ad.save_weights(path, model.state_arrays())
    wrong = JointModel.build(
        UNetConfig(base_channels=16, channel_multipliers=(1, 2), image_side=8,
                   time_embed_dim=8, classifier_hidden=16), seed=0)
    with pytest.raises(CheckpointMismatch):
        load_training_checkpoint(path, wrong)


def test_rejected_load_changes_no_parameter(model):
    arrays = dict(model.state_arrays())
    arrays["cls.fc2.b"] = np.zeros(5)  # the last parameter, mis-shaped
    other = JointModel.build(SMALL, seed=99)
    before = {k: p.data.copy() for k, p in other.params.items()}
    with pytest.raises(CheckpointMismatch):
        other.load_state(arrays)
    for k, p in other.params.items():
        assert np.array_equal(p.data, before[k]), k


def test_load_rejects_the_old_conv_layout(tmp_path, model):
    # conv weights used to be stored (out, in, kh, kw); such a file must not
    # load as (kh, kw, in, out), and the shapes cannot coincide at >= 8 channels
    arrays = {k: v.transpose(3, 2, 0, 1) if v.ndim == 4 else v
              for k, v in model.state_arrays().items()}
    path = tmp_path / "old.jdlw"
    ad.save_weights(path, arrays)
    other = JointModel.build(SMALL, seed=99)
    before = {k: p.data.copy() for k, p in other.params.items()}
    with pytest.raises(CheckpointMismatch):
        load_training_checkpoint(path, other)
    for k, p in other.params.items():
        assert np.array_equal(p.data, before[k]), k
