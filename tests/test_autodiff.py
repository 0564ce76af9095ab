import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jdl.autodiff as ad
from jdl.errors import CheckpointMismatch, NotScalar, ShapeMismatch

RNG = np.random.default_rng(0)


def rand(*shape):
    return RNG.standard_normal(shape)


def test_add_elementwise():
    out = ad.add(ad.tensor([1.0, 2.0]), ad.tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_sigmoid_at_zero():
    out = ad.sigmoid(ad.tensor([0.0]))
    assert np.array_equal(out.data, [0.5])


def test_conv2d_single_receptive_field():
    # brute-force oracle: 3x3 ones against 3x3 ones is a dot product of 9 ones
    x = ad.tensor(np.ones((1, 3, 3, 1)))
    w = ad.tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_backward_square():
    x = ad.tensor(3.0, requires_grad=True)
    loss = ad.mul(x, x)
    ad.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_backward_sigmoid_sum():
    x = ad.tensor(np.zeros(5), requires_grad=True)
    ad.backward(ad.sum(ad.sigmoid(x)))
    assert np.allclose(x.grad, 0.25)


def test_backward_requires_scalar():
    x = ad.tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NotScalar):
        ad.backward(ad.sigmoid(x))


def test_fanout_accumulates_both_branches():
    x = ad.tensor(2.0, requires_grad=True)
    loss = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
    ad.backward(loss)
    assert x.grad == pytest.approx(2 * 2.0 + 3.0)


def test_detached_branch_gets_zero_grad():
    x = ad.tensor(rand(4), requires_grad=True)
    frozen = ad.tensor(x.data)  # same values, no graph edge
    loss = ad.sum(ad.add(ad.mul(x, 2.0), ad.mul(frozen, 5.0)))
    ad.backward(loss)
    assert np.allclose(x.grad, 2.0)
    assert frozen.grad is None


def test_no_grad_suppresses_recording():
    x = ad.tensor(rand(3), requires_grad=True)
    with ad.no_grad():
        out = ad.sum(ad.silu(x))
    assert out.node is None and not out.requires_grad


def test_broadcast_policy_rejects_rank_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.add(ad.tensor(rand(2, 3)), ad.tensor(rand(3, 1, 1)))


def test_bias_add_gradients():
    x = ad.tensor(rand(4, 3), requires_grad=True)
    b = ad.tensor(rand(3), requires_grad=True)
    ad.backward(ad.sum(ad.add(x, b)))
    assert np.allclose(b.grad, 4.0)
    assert np.allclose(x.grad, 1.0)


def test_channel_bias_add():
    x = ad.tensor(rand(2, 3, 4, 4), requires_grad=True)
    b = ad.tensor(rand(1, 3, 1, 1), requires_grad=True)
    ad.backward(ad.sum(ad.add(x, b)))
    assert b.grad.shape == (1, 3, 1, 1)
    assert np.allclose(b.grad, 16 * 2)


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive


def _check(f, point, tol=1e-4, coords=None):
    err = ad.grad_check(f, ad.tensor(point), h=1e-5, coords=coords)
    assert err < tol, f"max relative error {err}"


def test_grad_add():
    other = ad.tensor(rand(3, 4))
    _check(lambda x: ad.sum(ad.add(x, other)), rand(3, 4))


def test_grad_mul():
    other = ad.tensor(rand(3, 4))
    _check(lambda x: ad.sum(ad.mul(x, other)), rand(3, 4))


def test_grad_matmul():
    other = ad.tensor(rand(4, 2))
    _check(lambda x: ad.sum(ad.matmul(x, other)), rand(3, 4))
    lhs = ad.tensor(rand(3, 4))
    _check(lambda w: ad.sum(ad.matmul(lhs, w)), rand(4, 2))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
def test_grad_conv2d(stride, padding):
    w = ad.tensor(rand(3, 2, 3, 3))
    _check(lambda x: ad.sum(ad.conv2d(x, w, stride=stride, padding=padding)),
           rand(2, 6, 6, 2))
    x0 = ad.tensor(rand(2, 6, 6, 2))
    _check(lambda w_: ad.sum(ad.conv2d(x0, w_, stride=stride, padding=padding)),
           rand(3, 2, 3, 3))


def test_grad_avg_pool2d():
    _check(lambda x: ad.sum(ad.avg_pool2d(x, kernel=2)), rand(2, 4, 4, 3))


def test_grad_upsample_nearest():
    weight = ad.tensor(rand(2, 8, 8, 3))
    _check(lambda x: ad.sum(ad.mul(ad.upsample_nearest(x, scale=2), weight)),
           rand(2, 4, 4, 3))


def test_grad_silu():
    _check(lambda x: ad.sum(ad.silu(x)), rand(5, 5))


def test_grad_leaky_relu():
    pt = rand(5, 5)
    pt[np.abs(pt) < 0.05] += 0.1  # keep clear of the kink
    _check(lambda x: ad.sum(ad.leaky_relu(x, slope=0.2)), pt)


def test_grad_sigmoid():
    _check(lambda x: ad.sum(ad.sigmoid(x)), rand(5, 5))


def test_grad_group_norm():
    gamma = ad.tensor(1.0 + 0.1 * rand(4))
    beta = ad.tensor(0.1 * rand(4))
    wgt = ad.tensor(rand(2, 3, 3, 4))
    _check(lambda x: ad.sum(ad.mul(ad.group_norm(x, gamma, beta), wgt)),
           rand(2, 3, 3, 4), tol=2e-4)
    x0 = ad.tensor(rand(2, 3, 3, 4))
    _check(lambda g: ad.sum(ad.mul(ad.group_norm(x0, g, beta), wgt)),
           1.0 + 0.1 * rand(4))


def test_grad_concat():
    other = ad.tensor(rand(2, 3, 2, 2))
    weight = ad.tensor(rand(2, 5, 2, 2))
    _check(lambda x: ad.sum(ad.mul(ad.concat([x, other], axis=1), weight)),
           rand(2, 2, 2, 2))


def test_grad_reshape_mean():
    _check(lambda x: ad.mean(ad.reshape(x, (6,))), rand(2, 3))


def test_grad_mse():
    target = ad.tensor(rand(3, 4))
    _check(lambda x: ad.mse(x, target), rand(3, 4))


def test_grad_bce_with_logits():
    y = ad.tensor((rand(4, 3) > 0).astype(float))
    _check(lambda x: ad.bce_with_logits(x, y), rand(4, 3))


def test_grad_conv_group_norm_composite():
    w = ad.tensor(0.3 * rand(4, 2, 3, 3))
    gamma = ad.tensor(np.ones(4))
    beta = ad.tensor(np.zeros(4))

    def f(x):
        h = ad.conv2d(x, w, stride=1, padding=1)
        h = ad.group_norm(h, gamma, beta)
        return ad.sum(ad.silu(h))

    _check(f, rand(1, 4, 4, 2))


def test_two_layer_net_against_finite_differences():
    w1 = ad.tensor(0.5 * rand(6, 8), requires_grad=True)
    w2 = ad.tensor(0.5 * rand(8, 1), requires_grad=True)
    x0 = ad.tensor(rand(4, 6))
    y0 = ad.tensor(rand(4, 1))

    def net_loss(w1d, w2d):
        h = ad.leaky_relu(ad.matmul(x0, w1d), slope=0.2)
        return ad.mse(ad.matmul(h, w2d), y0)

    _check(lambda w: net_loss(w, ad.tensor(w2.data)), w1.data)
    _check(lambda w: net_loss(ad.tensor(w1.data), w), w2.data)


def test_grad_check_sum_of_squares_tight():
    err = ad.grad_check(lambda x: ad.sum(ad.mul(x, x)), ad.tensor(rand(10)), h=1e-5)
    assert err < 1e-7


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_fanout_linearity(n, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal(n)
    x = ad.tensor(a, requires_grad=True)
    # x feeds two consumers; grads must sum
    ad.backward(ad.add(ad.sum(ad.mul(x, 2.0)), ad.sum(ad.mul(x, 5.0))))
    assert np.allclose(x.grad, 7.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mse_zero_on_identical(seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((3, 3))
    assert ad.mse(ad.tensor(a), ad.tensor(a)).item() == 0.0


def test_op_count_context():
    x = ad.tensor(rand(2, 2), requires_grad=True)
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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(GOOD_CHECKPOINT) - 1), st.integers(1, 255)),
                max_size=3))
@example([])
@example([(NAME_BYTE, 0x80)])        # name no longer UTF-8
@example([(RANK_HIGH_BYTE, 0x40)])   # rank far beyond the file
def test_checkpoint_loader_raises_only_checkpoint_mismatch(flips):
    blob = bytearray(GOOD_CHECKPOINT)
    for pos, mask in flips:
        blob[pos] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.jdlw"
        for cut in range(len(blob) + 1):
            path.write_bytes(bytes(blob[:cut]))
            try:
                ad.load_weights(path)
            except CheckpointMismatch:
                pass
