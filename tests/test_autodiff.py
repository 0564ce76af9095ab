import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jdl.autodiff as ad
import jdl.autodiff.ops as ops
from jdl.errors import CheckpointMismatch, GraphConsumed, NotScalar, ShapeMismatch

from gradcheck import grad_check

RNG = np.random.default_rng(0)


def rand(*shape):
    return RNG.standard_normal(shape)


def test_add_elementwise():
    out = ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_sigmoid_at_zero():
    out = ad.sigmoid(ad.Tensor([0.0]))
    assert np.array_equal(out.data, [0.5])


def test_conv2d_single_receptive_field():
    # brute-force oracle: 3x3 ones over a zero-padded 3x3 of ones counts the
    # ones under each window, 9 at the centre and 4 at a corner
    x = ad.Tensor(np.ones((1, 3, 3, 1)))
    w = ad.Tensor(np.ones((3, 3, 1, 1)))
    out = ad.conv2d(x, w, stride=1)
    assert out.shape == (1, 3, 3, 1)
    padded = np.pad(x.data[0, :, :, 0], 1)
    assert out.data[0, 1, 1, 0] == padded[1:4, 1:4].sum() == 9.0
    assert out.data[0, 0, 0, 0] == padded[0:3, 0:3].sum() == 4.0


def test_backward_square():
    x = ad.Tensor(3.0, requires_grad=True)
    loss = ad.mul(x, x)
    ad.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_backward_of_a_leaf_accumulates():
    # a leaf loss adds to its grad like any other leaf, not only when unset
    x = ad.Tensor(3.0, requires_grad=True)
    y = ad.Tensor(3.0, requires_grad=True)
    for _ in range(2):
        ad.backward(x)
        ad.backward(ad.mul(y, 1.0))
    assert x.grad == y.grad == 2.0


def test_backward_sigmoid_sum():
    x = ad.Tensor(np.zeros(5), requires_grad=True)
    ad.backward(ad.sum(ad.sigmoid(x)))
    assert np.allclose(x.grad, 0.25)


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NotScalar):
        ad.backward(ad.sigmoid(x))


def test_backward_consumes_the_graph():
    x = ad.Tensor(rand(3), requires_grad=True)
    h = ad.mul(x, x)
    alive = weakref.ref(h.data)
    loss = ad.sum(h)
    del h
    ad.backward(loss)
    assert alive() is None          # freed by backward, not when loss goes
    with pytest.raises(GraphConsumed):
        ad.backward(loss)


def test_fanout_accumulates_both_branches():
    x = ad.Tensor(2.0, requires_grad=True)
    loss = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
    ad.backward(loss)
    assert x.grad == pytest.approx(2 * 2.0 + 3.0)


def test_detached_branch_gets_zero_grad():
    x = ad.Tensor(rand(4), requires_grad=True)
    frozen = ad.Tensor(x.data)  # same values, no graph edge
    loss = ad.sum(ad.add(ad.mul(x, 2.0), ad.mul(frozen, 5.0)))
    ad.backward(loss)
    assert np.allclose(x.grad, 2.0)
    assert frozen.grad is None


def test_no_grad_suppresses_recording():
    x = ad.Tensor(rand(3), requires_grad=True)
    with ad.no_grad():
        out = ad.sum(ad.silu(x))
    assert out.node is None and not out.requires_grad


def test_broadcast_policy_rejects_rank_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.add(ad.Tensor(rand(2, 3)), ad.Tensor(rand(3, 1, 1)))


def _recorded(out):
    """The parents the node of ``out`` keeps, after checking that its rule
    returns one gradient per kept parent, shaped like that parent."""
    grads = out.node.backward_fn(np.ones(out.shape))
    assert [g.shape for g in grads] == [p.shape for p in out.node.parents]
    return out.node.parents


def test_bias_add_gradients():
    x = ad.Tensor(rand(4, 3), requires_grad=True)
    b = ad.Tensor(rand(3), requires_grad=True)
    ad.backward(ad.sum(ad.add(x, b)))
    assert np.allclose(b.grad, 4.0)
    assert np.allclose(x.grad, 1.0)
    frozen = ad.Tensor(rand(3))
    assert _recorded(ad.add(x, frozen)) == (x,)
    assert _recorded(ad.add(x, b)) == (x, b)


def test_channel_bias_add():
    x = ad.Tensor(rand(2, 3, 4, 4), requires_grad=True)
    b = ad.Tensor(rand(1, 3, 1, 1), requires_grad=True)
    ad.backward(ad.sum(ad.add(x, b)))
    assert b.grad.shape == (1, 3, 1, 1)
    assert np.allclose(b.grad, 16 * 2)


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive


def _check(f, point, tol=1e-4):
    err = grad_check(f, ad.Tensor(point))
    assert err < tol, f"max relative error {err}"


def _weights(seed, *shape):
    """A fixed random output weighting, so each output gets its own gradient.

    Under a uniform output gradient a vjp that sends it to the wrong element
    passes. Each test draws from its own generator, which leaves the shared
    ``RNG`` stream, and so every later test's inputs, unchanged.
    """
    return ad.Tensor(np.random.default_rng(seed).standard_normal(shape))


@pytest.mark.usefixtures("float64")
def test_grad_add():
    other = ad.Tensor(rand(3, 4))
    weight = _weights(3, 3, 4)
    _check(lambda x: ad.sum(ad.mul(ad.add(x, other), weight)), rand(3, 4))


@pytest.mark.usefixtures("float64")
def test_grad_mul():
    other = ad.Tensor(rand(3, 4))
    weight = _weights(4, 3, 4)
    _check(lambda x: ad.sum(ad.mul(ad.mul(x, other), weight)), rand(3, 4))


@pytest.mark.usefixtures("float64")
def test_grad_matmul():
    other = ad.Tensor(rand(4, 2))
    weight = _weights(5, 3, 2)
    _check(lambda x: ad.sum(ad.mul(ad.matmul(x, other), weight)), rand(3, 4))
    lhs = ad.Tensor(rand(3, 4))
    _check(lambda w: ad.sum(ad.mul(ad.matmul(lhs, w), weight)), rand(4, 2))
    grad = ad.Tensor(rand(3, 4), requires_grad=True)
    w = ad.Tensor(rand(4, 2), requires_grad=True)
    assert _recorded(ad.matmul(grad, other)) == (grad,)
    assert _recorded(ad.matmul(lhs, w)) == (w,)
    assert _recorded(ad.matmul(grad, w)) == (grad, w)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("stride,k,side", [
    (1, 3, 6), (2, 3, 6),
    (1, 1, 6),  # the 1x1 skip convs
    (2, 3, 5),  # odd side: the last window is centred on the last row
    (1, 5, 6),
], ids=["1-1", "2-1", "1x1", "2-1-odd", "5x5"])
def test_grad_conv2d(stride, k, side):
    w = ad.Tensor(rand(k, k, 2, 3))
    x0 = ad.Tensor(rand(2, side, side, 2))
    # a uniform output gradient would hide a gradient sent to the wrong pixel
    r = ad.Tensor(rand(*ad.conv2d(x0, w, stride=stride).shape))

    def loss(x, w_):
        return ad.sum(ad.mul(ad.conv2d(x, w_, stride=stride), r))

    _check(lambda x: loss(x, w), rand(2, side, side, 2))
    _check(lambda w_: loss(x0, w_), rand(k, k, 2, 3))
    x1 = ad.Tensor(rand(2, side, side, 2), requires_grad=True)
    w1 = ad.Tensor(rand(k, k, 2, 3), requires_grad=True)
    if (stride, k, side) == (2, 3, 5):
        ad.backward(ad.sum(ad.conv2d(x1, w, stride=stride)))
        assert x1.grad[:, :, :, 0].any(axis=(0, 1)).all()
        assert x1.grad[:, :, :, 0].any(axis=(0, 2)).all()
    assert _recorded(ad.conv2d(x1, w, stride=stride)) == (x1,)
    assert _recorded(ad.conv2d(x0, w1, stride=stride)) == (w1,)
    assert _recorded(ad.conv2d(x1, w1, stride=stride)) == (x1, w1)


def test_conv2d_geometry():
    x = ad.Tensor(rand(1, 5, 5, 2))
    w = ad.Tensor(rand(3, 3, 2, 3))
    # a fractional stride used to raise a bare TypeError
    for stride in (0, -1, 1.5, True):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, w, stride=stride)
    # the padding is K // 2, which centres only an odd square kernel
    for shape in ((2, 2, 2, 3), (3, 1, 2, 3)):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, ad.Tensor(rand(*shape)))


def test_conv2d_keeps_no_window_matrix():
    x = ad.Tensor(rand(4, 16, 16, 8), requires_grad=True)
    w = ad.Tensor(rand(3, 3, 8, 8), requires_grad=True)
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, stride=1)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the window matrix alone would be 9 * x.nbytes
    assert kept < out.data.nbytes + x.data.nbytes


def test_conv2d_keeps_no_weight_copy():
    # the dx rule holds the weights: a copy of these 64 -> 64 3x3 ones would
    # be 36 times x
    x = ad.Tensor(np.ones((1, 4, 4, 64)), requires_grad=True)
    w = ad.Tensor(np.ones((3, 3, 64, 64)))
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, stride=1)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < out.data.nbytes + x.data.nbytes


@pytest.mark.usefixtures("float64")
def test_grad_avg_pool2d():
    weight = _weights(1, 2, 2, 2, 3)
    _check(lambda x: ad.sum(ad.mul(ad.avg_pool2d(x), weight)),
           rand(2, 4, 4, 3))


@pytest.mark.usefixtures("float64")
def test_grad_upsample_nearest():
    weight = ad.Tensor(rand(2, 8, 8, 3))
    _check(lambda x: ad.sum(ad.mul(ad.upsample_nearest(x), weight)),
           rand(2, 4, 4, 3))


@pytest.mark.usefixtures("float64")
def test_grad_silu():
    weight = _weights(6, 5, 5)
    _check(lambda x: ad.sum(ad.mul(ad.silu(x), weight)), rand(5, 5))


@pytest.mark.usefixtures("float64")
def test_grad_leaky_relu():
    pt = rand(5, 5)
    pt[np.abs(pt) < 0.05] += 0.1  # keep clear of the kink
    weight = _weights(7, 5, 5)
    _check(lambda x: ad.sum(ad.mul(ad.leaky_relu(x), weight)), pt)


@pytest.mark.usefixtures("float64")
def test_grad_sigmoid():
    weight = _weights(8, 5, 5)
    _check(lambda x: ad.sum(ad.mul(ad.sigmoid(x), weight)), rand(5, 5))


@pytest.mark.usefixtures("float64")
def test_grad_group_norm():
    gamma = ad.Tensor(1.0 + 0.1 * rand(4))
    beta = ad.Tensor(0.1 * rand(4))
    wgt = ad.Tensor(rand(2, 3, 3, 4))
    _check(lambda x: ad.sum(ad.mul(ad.group_norm(x, gamma, beta), wgt)),
           rand(2, 3, 3, 4), tol=2e-4)
    x0 = ad.Tensor(rand(2, 3, 3, 4))
    _check(lambda g: ad.sum(ad.mul(ad.group_norm(x0, g, beta), wgt)),
           1.0 + 0.1 * rand(4))
    _check(lambda b: ad.sum(ad.mul(ad.group_norm(x0, gamma, b), wgt)),
           0.1 * rand(4))
    x1 = ad.Tensor(rand(2, 3, 3, 4), requires_grad=True)
    assert _recorded(ad.group_norm(x1, gamma, beta)) == (x1,)
    g1 = ad.Tensor(gamma.data, requires_grad=True)
    b1 = ad.Tensor(beta.data, requires_grad=True)
    assert _recorded(ad.group_norm(x1, g1, b1)) == (x1, g1, b1)


@pytest.mark.usefixtures("float64")
def test_grad_group_norm_two_channels_per_group():
    # C = 8 folds two channels into each of the 4 groups
    r = np.random.default_rng(20)
    gamma = ad.Tensor(1.0 + 0.1 * r.standard_normal(8))
    beta = ad.Tensor(0.1 * r.standard_normal(8))
    wgt = _weights(21, 2, 3, 3, 8)
    x0 = ad.Tensor(r.standard_normal((2, 3, 3, 8)))
    _check(lambda x: ad.sum(ad.mul(ad.group_norm(x, gamma, beta), wgt)),
           r.standard_normal((2, 3, 3, 8)), tol=2e-4)
    _check(lambda g: ad.sum(ad.mul(ad.group_norm(x0, g, beta), wgt)), gamma.data)
    _check(lambda b: ad.sum(ad.mul(ad.group_norm(x0, gamma, b), wgt)), beta.data)


def test_group_norm_float32_keeps_a_large_mean_out_of_the_variance():
    # a per-group mean of 30 against a spread of 1: the float32 variance of
    # E[x^2] - E[x]^2 cancels its leading digits and drifts by about 1e-3
    r = np.random.default_rng(22)
    x = 30.0 + r.standard_normal((2, 8, 8, 8))
    gamma = 1.0 + 0.1 * r.standard_normal(8)
    beta = 0.1 * r.standard_normal(8)
    out = ad.group_norm(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta)).data
    assert out.dtype == np.float32
    xg = x.reshape(2, 8, 8, 4, 2)
    mu = xg.mean(axis=(1, 2, 4), keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=(1, 2, 4), keepdims=True)
    ref = ((xg - mu) / np.sqrt(var + 1e-5)).reshape(x.shape) * gamma + beta
    assert np.abs(out - ref).max() <= 5e-5


def test_silu_far_out_is_finite_and_quiet():
    x = ad.Tensor([-1e4, 1e4], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.silu(x)
        ad.backward(ad.sum(ad.mul(out, ad.Tensor([3.0, 5.0]))))
    assert np.array_equal(out.data, [0.0, 1e4])
    assert np.array_equal(x.grad, [0.0, 5.0])


def _add_of_two_branches(silu_first: bool, lone=None):
    """sum(w * (silu(a) + group_norm(b, gamma, beta))), with ``add`` handing
    the same output gradient to both branches; ``lone`` keeps only the named
    branch. The branch built second runs its backward first."""
    r = np.random.default_rng(23)
    a, b = (ad.Tensor(r.standard_normal((2, 3, 3, 8)), requires_grad=True) for _ in range(2))
    gamma = ad.Tensor(1.0 + 0.1 * r.standard_normal(8), requires_grad=True)
    beta = ad.Tensor(0.1 * r.standard_normal(8), requires_grad=True)
    w = ad.Tensor(r.standard_normal((2, 3, 3, 8)))
    branches = {"silu": lambda: ad.silu(a), "group_norm": lambda: ad.group_norm(b, gamma, beta)}
    order = ["silu", "group_norm"] if silu_first else ["group_norm", "silu"]
    outs = [branches[name]() for name in order if lone in (None, name)]
    y = outs[0] if lone else ad.add(*outs)
    return ad.sum(ad.mul(y, w)), {"silu": (a,), "group_norm": (b, gamma, beta)}


@pytest.mark.parametrize("silu_first", [True, False], ids=["group_norm_vjp_first",
                                                           "silu_vjp_first"])
def test_backward_writes_into_no_array_it_does_not_own(monkeypatch, silu_first):
    held = []   # every array that a silu or group_norm rule keeps, with a copy
    real = ops.record

    def record(kind, out_data, *rules):
        if kind in ("silu", "group_norm"):
            for _, vjp in rules:
                for cell in vjp.__closure__ or ():
                    value = cell.cell_contents
                    value = value.data if isinstance(value, ad.Tensor) else value
                    if isinstance(value, np.ndarray):
                        held.append((value, value.copy()))
        return real(kind, out_data, *rules)

    monkeypatch.setattr(ops, "record", record)
    loss, leaves = _add_of_two_branches(silu_first)
    inputs = [(t.data, t.data.copy()) for group in leaves.values() for t in group]
    ad.backward(loss)
    # x.data, gamma and beta, and the kept s, xhat and 1/std
    assert len(held) >= 5
    for array, before in inputs + held:
        assert np.array_equal(array, before)
    for name, group in leaves.items():
        alone, alone_leaves = _add_of_two_branches(silu_first, lone=name)
        ad.backward(alone)
        for t, ref in zip(group, alone_leaves[name]):
            assert np.array_equal(t.grad, ref.grad), name


@pytest.mark.usefixtures("float64")
def test_grad_concat():
    other = ad.Tensor(rand(2, 2, 2, 3))
    weight = ad.Tensor(rand(2, 2, 2, 5))
    _check(lambda x: ad.sum(ad.mul(ad.concat(x, other), weight)),
           rand(2, 2, 2, 2))
    # the channel axis is the last; every other dim, and the rank, must match
    for bad in (np.zeros((2, 2, 3, 2)), np.zeros((2, 2, 2))):
        with pytest.raises(ShapeMismatch):
            ad.concat(other, ad.Tensor(bad))
    # two 0-d tensors have no channel axis; they used to raise a bare IndexError
    with pytest.raises(ShapeMismatch):
        ad.concat(ad.Tensor(1.0), ad.Tensor(2.0))


@pytest.mark.usefixtures("float64")
def test_grad_reshape_mean():
    weight = _weights(2, 6)
    # the mean as a sum scaled by 1/n
    _check(lambda x: ad.mul(ad.sum(ad.mul(ad.reshape(x, (6,)), weight)), 1.0 / 6),
           rand(2, 3))


@pytest.mark.usefixtures("float64")
def test_grad_mse():
    target = ad.Tensor(rand(3, 4))
    _check(lambda x: ad.mse(x, target), rand(3, 4))
    _check(lambda t: ad.mse(target, t), rand(3, 4))
    pred = ad.Tensor(rand(3, 4), requires_grad=True)
    assert _recorded(ad.mse(pred, target)) == (pred,)


@pytest.mark.usefixtures("float64")
def test_grad_bce_with_logits():
    y = ad.Tensor((rand(4, 3) > 0).astype(float))
    _check(lambda x: ad.bce_with_logits(x, y), rand(4, 3))
    logits = ad.Tensor(rand(4, 3))
    _check(lambda t: ad.bce_with_logits(logits, t), rand(4, 3))
    graph = ad.Tensor(rand(4, 3), requires_grad=True)
    assert _recorded(ad.bce_with_logits(graph, y)) == (graph,)


@pytest.mark.usefixtures("float64")
def test_grad_conv_group_norm_composite():
    w = ad.Tensor(0.3 * rand(3, 3, 2, 4))
    gamma = ad.Tensor(np.ones(4))
    beta = ad.Tensor(np.zeros(4))

    def f(x):
        h = ad.conv2d(x, w, stride=1)
        h = ad.group_norm(h, gamma, beta)
        return ad.sum(ad.silu(h))

    _check(f, rand(1, 4, 4, 2))


@pytest.mark.usefixtures("float64")
def test_two_layer_net_against_finite_differences():
    w1 = ad.Tensor(0.5 * rand(6, 8), requires_grad=True)
    w2 = ad.Tensor(0.5 * rand(8, 1), requires_grad=True)
    x0 = ad.Tensor(rand(4, 6))
    y0 = ad.Tensor(rand(4, 1))

    def net_loss(w1d, w2d):
        h = ad.leaky_relu(ad.matmul(x0, w1d))
        return ad.mse(ad.matmul(h, w2d), y0)

    _check(lambda w: net_loss(w, ad.Tensor(w2.data)), w1.data)
    _check(lambda w: net_loss(ad.Tensor(w1.data), w), w2.data)


@pytest.mark.usefixtures("float64")
def test_grad_check_sum_of_squares_tight():
    err = grad_check(lambda x: ad.sum(ad.mul(x, x)), ad.Tensor(rand(10)))
    assert err < 1e-7


def test_grad_check_rejects_f_not_finite_at_the_point():
    with pytest.raises(ValueError, match="not finite at the point"):
        grad_check(lambda x: ad.mul(ad.sum(x), np.nan), ad.Tensor(np.ones(3)))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_fanout_linearity(n, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal(n)
    x = ad.Tensor(a, requires_grad=True)
    # x feeds two consumers; grads must sum
    ad.backward(ad.add(ad.sum(ad.mul(x, 2.0)), ad.sum(ad.mul(x, 5.0))))
    assert np.allclose(x.grad, 7.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mse_zero_on_identical(seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((3, 3))
    assert ad.mse(ad.Tensor(a), ad.Tensor(a)).item() == 0.0


def test_op_count_context():
    x = ad.Tensor(rand(2, 2), requires_grad=True)
    with ad.op_count() as counts:
        ad.sum(ad.mul(x, x))
    assert counts == {"mul": 1, "sum": 1}


def test_checkpoint_roundtrip(tmp_path):
    named = {"a.weight": rand(3, 4), "b": np.asarray(2.5), "conv.w": rand(2, 1, 3, 3)}
    path = tmp_path / "w.jdlw"
    ad.save_weights(path, named)
    back = ad.load_weights(path)
    assert set(back) == set(named)
    for k in named:
        assert np.array_equal(back[k], np.asarray(named[k]))
    # header magic is pinned by the file format
    assert path.read_bytes()[:5] == b"JDLW1"


def test_load_weights_holds_the_file_once(tmp_path):
    path = tmp_path / "w.jdlw"
    ad.save_weights(path, {f"w{i}": np.ones((64, 1024)) for i in range(4)})
    tracemalloc.start()
    try:
        ad.load_weights(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the arrays alone are 1x; a copy of the file on top of them is 2x
    assert peak < 1.25 * path.stat().st_size


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jdlw"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(CheckpointMismatch):
        ad.load_weights(path)


class _FailingArray:
    """Raises when the writer converts it to float64."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "w.jdlw"
    ad.save_weights(path, {"a": rand(2, 2)})
    before = path.read_bytes()
    # "a" sorts first, so its record is written before "b" fails
    with pytest.raises(OSError):
        ad.save_weights(path, {"a": rand(3, 3), "b": _FailingArray()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.jdlw"]


def _checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.jdlw"
        ad.save_weights(path, {"b": np.asarray(2.5), "conv.w": np.arange(4.0).reshape(2, 2)})
        return path.read_bytes()


GOOD_CHECKPOINT = _checkpoint_bytes()
# byte offsets inside the first record ("b"): name length 5..12, name 13, rank 14..21
NAME_BYTE, RANK_HIGH_BYTE = 13, 21


def _loads_or_raises_checkpoint_mismatch(path: Path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        ad.load_weights(path)
    except CheckpointMismatch:
        pass


def _flipped(flips) -> bytes:
    blob = bytearray(GOOD_CHECKPOINT)
    for pos, mask in flips:
        blob[pos] ^= mask
    return bytes(blob)


@pytest.mark.parametrize("flips", [
    [], [(NAME_BYTE, 0x80)], [(RANK_HIGH_BYTE, 0x40)],
], ids=["clean", "name_not_utf8", "rank_far_beyond_the_file"])
def test_checkpoint_loader_raises_only_checkpoint_mismatch_at_every_cut(tmp_path, flips):
    blob = _flipped(flips)
    for cut in range(len(blob) + 1):
        _loads_or_raises_checkpoint_mismatch(tmp_path / "w.jdlw", blob[:cut])


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "w.jdlw"


# one file per example: hypothesis draws the flips and the cut together, so
# every pair stays reachable and a failure shrinks to a minimal one
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(GOOD_CHECKPOINT) - 1), st.integers(1, 255)),
                max_size=3),
       st.integers(0, len(GOOD_CHECKPOINT)))
def test_checkpoint_loader_raises_only_checkpoint_mismatch(fuzz_path, flips, cut):
    _loads_or_raises_checkpoint_mismatch(fuzz_path, _flipped(flips)[:cut])
