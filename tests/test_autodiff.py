import itertools
import os
import subprocess
import sys
import tempfile
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jdl.autodiff as ad
import jdl.autodiff.ops as ops
from jdl.errors import (CheckpointMismatch, ConfigInvalid, GraphConsumed, NotScalar,
                        ShapeMismatch)

from gradcheck import grad_check, traced, weighted_sum

RNG = np.random.default_rng(0)


def rand(*shape):
    return RNG.standard_normal(shape)


def test_add_elementwise():
    out = ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_sigmoid_at_zero():
    # the numpy sigmoid that class_probs and the BCE gradient share; exp(-|x|)
    # keeps both tails finite
    out = ops._sigmoid(np.array([0.0, -1000.0, 1000.0]))
    assert np.array_equal(out, [0.5, 0.0, 1.0])


def test_conv2d_single_receptive_field():
    # brute-force oracle: 3x3 ones over a zero-padded 3x3 of ones counts the
    # ones under each window, 9 at the centre and 4 at a corner, plus the bias
    x = ad.Tensor(np.ones((1, 3, 3, 1)))
    w = ad.Tensor(np.ones((3, 3, 1, 1)))
    out = ad.conv2d(x, w, ad.Tensor([0.5]), stride=1)
    assert out.shape == (1, 3, 3, 1)
    padded = np.pad(x.data[0, :, :, 0], 1)
    assert out.data[0, 1, 1, 0] == padded[1:4, 1:4].sum() + 0.5 == 9.5
    assert out.data[0, 0, 0, 0] == padded[0:3, 0:3].sum() + 0.5 == 4.5


def test_backward_square():
    # x feeds both sides of a 1x1 matmul, so both of its rules reach x
    x = ad.Tensor([[3.0]], requires_grad=True)
    loss = ad.reshape(ad.matmul(x, x), ())
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


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NotScalar):
        ad.backward(ad.mul(x, 2.0))


def test_backward_consumes_the_graph():
    x = ad.Tensor(rand(3), requires_grad=True)
    h = ad.mul(x, 2.0)
    alive = weakref.ref(h.data)
    loss = weighted_sum(h)
    del h
    ad.backward(loss)
    assert alive() is None          # freed by backward, not when loss goes
    with pytest.raises(GraphConsumed):
        ad.backward(loss)


def test_graph_keeps_no_intermediate_that_no_rule_reads():
    # neither add's rules nor mul's read h, so once the caller lets go of it
    # nothing holds its data, before backward runs as after
    x = ad.Tensor(rand(3), requires_grad=True)
    b = ad.Tensor(rand(3), requires_grad=True)
    h = ad.add(x, b)
    loss = weighted_sum(ad.mul(h, 2.0))
    alive = weakref.ref(h.data)
    del h
    assert alive() is None
    ad.backward(loss)
    assert np.array_equal(x.grad, np.full(3, 2.0)) and np.array_equal(b.grad, x.grad)


def test_fanout_accumulates_both_branches():
    x = ad.Tensor([[2.0]], requires_grad=True)
    loss = ad.reshape(ad.add(ad.matmul(x, x), ad.mul(x, 3.0)), ())  # x^2 + 3x
    ad.backward(loss)
    assert x.grad == pytest.approx(2 * 2.0 + 3.0)


def test_detached_branch_gets_zero_grad():
    x = ad.Tensor(rand(4), requires_grad=True)
    frozen = ad.Tensor(x.data)  # same values, no graph edge
    loss = weighted_sum(ad.add(ad.mul(x, 2.0), ad.mul(frozen, 5.0)))
    ad.backward(loss)
    assert np.allclose(x.grad, 2.0)
    assert frozen.grad is None


def test_no_grad_suppresses_recording():
    x = ad.Tensor(rand(3), requires_grad=True)
    with ad.no_grad():
        out = weighted_sum(ad.silu(x))
    assert out.node is None and not out.requires_grad


def test_no_grad_holds_on_its_own_thread_alone():
    # a second thread inside no_grad must not stop this one recording
    x = ad.Tensor(_weights(66, 3), requires_grad=True)
    entered, release = threading.Event(), threading.Event()
    inside = []

    def other():
        with ad.no_grad():
            inside.append(ad.mul(x, 2.0))
            entered.set()
            release.wait(60)

    thread = threading.Thread(target=other)
    thread.start()
    try:
        assert entered.wait(60)
        here = ad.mul(x, 2.0)
    finally:
        release.set()
        thread.join()
    assert here.node is not None and inside[0].node is None


def test_broadcast_policy_rejects_rank_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.add(ad.Tensor(rand(2, 3)), ad.Tensor(rand(3, 1, 1)))
    # a scalar against a tensor, too: ``mul`` scales by a constant instead
    for scalar in (ad.Tensor(2.0), ad.Tensor([2.0])):
        with pytest.raises(ShapeMismatch):
            ad.add(ad.Tensor(np.ones((2, 3))), scalar)


@pytest.mark.parametrize("shapes", [((3,), (4, 3)), ((1, 3, 1, 1), (2, 3, 4, 4)),
                                    ((1, 3), (2, 1)),
                                    # a linear bias, a conv bias and a time shift,
                                    # which their products add
                                    ((4, 3), (3,)), ((2, 3, 4, 4), (1, 3, 1, 1)),
                                    ((2, 4, 4, 3), (2, 1, 1, 3))], ids=repr)
def test_add_takes_one_shape(shapes):
    a, b = (ad.Tensor(np.ones(s)) for s in shapes)
    with pytest.raises(ShapeMismatch):
        ad.add(a, b)


def _recorded(out):
    """The parents the node of ``out`` keeps, after checking that its rule
    returns one gradient per kept parent, shaped like that parent."""
    grads = out.node.backward_fn(np.ones(out.shape))
    assert [g.shape for g in grads] == [p.shape for p in out.node.parents]
    return out.node.parents


def test_bias_add_gradients():
    # a linear layer's bias, added inside its matmul: its gradient sums the
    # output gradient over the rows
    x = ad.Tensor(rand(4, 3), requires_grad=True)
    w = ad.Tensor(_weights(51, 3, 3), requires_grad=True)
    b = ad.Tensor(rand(3), requires_grad=True)
    out = ad.matmul(x, w, b)
    assert np.array_equal(out.data, x.data @ w.data + b.data)
    ad.backward(weighted_sum(out))
    assert np.allclose(b.grad, 4.0)
    assert np.allclose(x.grad, w.data.sum(axis=1))
    frozen = ad.Tensor(rand(3))
    assert _recorded(ad.matmul(x, w, frozen)) == (x, w)
    assert _recorded(ad.matmul(x, ad.Tensor(w.data), b)) == (x, b)
    assert _recorded(ad.matmul(x, w, b)) == (x, w, b)


def test_channel_bias_add():
    # a time shift per image and channel, added inside the conv after its
    # bias: its gradient sums the output gradient over each image's pixels
    x = ad.Tensor(rand(2, 4, 4, 3), requires_grad=True)
    w = ad.Tensor(_weights(52, 3, 3, 3, 3))
    b = ad.Tensor(rand(3))
    shift = ad.Tensor(_weights(53, 2, 3), requires_grad=True)
    out = ad.conv2d(x, w, b, shift=shift)
    assert np.array_equal(out.data, ad.conv2d(x, w, b).data + shift.data[:, None, None, :])
    ad.backward(weighted_sum(out))
    assert shift.grad.shape == (2, 3)
    assert np.allclose(shift.grad, 16)
    frozen = ad.Tensor(shift.data)
    assert _recorded(ad.conv2d(x, w, b, shift=frozen)) == (x,)
    assert _recorded(ad.conv2d(x, w, b, shift=shift)) == (x, shift)


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
    return np.random.default_rng(seed).standard_normal(shape)


def _draw_for(up: int, seed: int):
    """``rand`` for a conv that does not upsample; for one that does,
    ``_weights`` from ``seed`` on, one seed per draw, so that its cases
    leave the shared ``RNG`` stream as it was."""
    seeds = itertools.count(seed)
    return rand if up == 1 else lambda *shape: _weights(next(seeds), *shape)


@pytest.mark.usefixtures("float64")
def test_grad_add():
    other = ad.Tensor(rand(3, 4))
    weight = _weights(3, 3, 4)
    _check(lambda x: weighted_sum(ad.add(x, other), weight), rand(3, 4))


@pytest.mark.usefixtures("float64")
def test_grad_mul():
    weight = _weights(4, 3, 4)
    _check(lambda x: weighted_sum(ad.mul(x, -2.5), weight), rand(3, 4))
    x = ad.Tensor(rand(3, 4), requires_grad=True)
    assert _recorded(ad.mul(x, 2.5)) == (x,)
    # the factor is a real constant; a tensor or an array has no rule here
    for bad in (ad.Tensor(2.0), np.ones((3, 4)), "2", True):
        with pytest.raises(ConfigInvalid):
            ad.mul(x, bad)


@pytest.mark.usefixtures("float64")
def test_grad_matmul():
    other = ad.Tensor(rand(4, 2))
    weight = _weights(5, 3, 2)
    _check(lambda x: weighted_sum(ad.matmul(x, other), weight), rand(3, 4))
    lhs = ad.Tensor(rand(3, 4))
    _check(lambda w: weighted_sum(ad.matmul(lhs, w), weight), rand(4, 2))
    grad = ad.Tensor(rand(3, 4), requires_grad=True)
    w = ad.Tensor(rand(4, 2), requires_grad=True)
    assert _recorded(ad.matmul(grad, other)) == (grad,)
    assert _recorded(ad.matmul(lhs, w)) == (w,)
    assert _recorded(ad.matmul(grad, w)) == (grad, w)


@pytest.mark.usefixtures("float64")
def test_grad_matmul_with_bias_every_input_trainable():
    weight = _weights(55, 3, 2)

    def f(x, w, b):
        return weighted_sum(ad.matmul(x, w, b), weight)

    inputs = {"x": _weights(56, 3, 4), "w": _weights(57, 4, 2), "b": _weights(58, 2)}
    _check_every_input(f, inputs, tol={})
    # one bias per output column
    x, w = ad.Tensor(inputs["x"]), ad.Tensor(inputs["w"])
    for shape in ((3,), (1, 2), (3, 2), ()):
        with pytest.raises(ShapeMismatch):
            ad.matmul(x, w, ad.Tensor(np.zeros(shape)))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("stride,k,side,ci,co,up", [
    (1, 3, 6, 2, 3, 1), (2, 3, 6, 2, 3, 1),
    (1, 1, 6, 2, 3, 1),  # the 1x1 skip convs
    (2, 3, 5, 2, 3, 1),  # odd side: the last window is centred on the last row
    (1, 5, 6, 2, 3, 1),
    # the dx canvas holds g from offset K // 2 = 2, every other pixel
    (2, 5, 6, 2, 3, 1), (2, 5, 7, 2, 3, 1),
    (2, 1, 6, 2, 3, 1),  # no padding: g on the even pixels only
    (1, 3, 6, 3, 2, 1),  # the dx GEMM's inner dimension K*K*C_out is the smaller
    # the decoder's upsampling convs: each pixel of x is a 2x2 patch
    (1, 3, 3, 2, 3, 2), (2, 3, 3, 2, 3, 2),
], ids=["1-1", "2-1", "1x1", "2-1-odd", "5x5", "2-5x5", "2-5x5-odd", "2-1x1", "3to2",
        "up2-1", "up2-2"])
def test_grad_conv2d(stride, k, side, ci, co, up):
    draw = _draw_for(up, 67)
    w = ad.Tensor(draw(k, k, ci, co))
    b = ad.Tensor(_weights(30, co))
    x0 = ad.Tensor(draw(2, side, side, ci))
    # a uniform output gradient would hide a gradient sent to the wrong pixel
    r = draw(*ad.conv2d(x0, w, b, stride=stride, up=up).shape)

    def loss(x, w_, b_):
        return weighted_sum(ad.conv2d(x, w_, b_, stride=stride, up=up), r)

    _check(lambda x: loss(x, w, b), draw(2, side, side, ci))
    _check(lambda w_: loss(x0, w_, b), draw(k, k, ci, co))
    _check(lambda b_: loss(x0, w, b_), _weights(31, co))
    x1 = ad.Tensor(draw(2, side, side, ci), requires_grad=True)
    w1 = ad.Tensor(draw(k, k, ci, co), requires_grad=True)
    b1 = ad.Tensor(b.data, requires_grad=True)
    if (stride, k, side) == (2, 3, 5):
        ad.backward(weighted_sum(ad.conv2d(x1, w, b, stride=stride)))
        assert x1.grad[:, :, :, 0].any(axis=(0, 1)).all()
        assert x1.grad[:, :, :, 0].any(axis=(0, 2)).all()
    # the bias rule is kept only for a bias that requires grad
    assert _recorded(ad.conv2d(x1, w, b, stride=stride, up=up)) == (x1,)
    assert _recorded(ad.conv2d(x0, w1, b, stride=stride, up=up)) == (w1,)
    assert _recorded(ad.conv2d(x0, w, b1, stride=stride, up=up)) == (b1,)
    assert _recorded(ad.conv2d(x1, w1, b1, stride=stride, up=up)) == (x1, w1, b1)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("stride", [1, 2])
def test_grad_conv2d_with_shift_every_input_trainable(stride):
    side = (5 - 1) // stride + 1
    r = _weights(59, 2, side, side, 3)

    def f(x, w, b, shift):
        return weighted_sum(ad.conv2d(x, w, b, stride=stride, shift=shift), r)

    _check_every_input(f, {"x": _weights(60, 2, 5, 5, 2), "w": 0.3 * _weights(61, 3, 3, 2, 3),
                           "b": _weights(62, 3), "shift": _weights(63, 2, 3)}, tol={})


def test_conv2d_geometry():
    x = ad.Tensor(rand(1, 5, 5, 2))
    w = ad.Tensor(rand(3, 3, 2, 3))
    b = ad.Tensor(np.zeros(3))
    # a fractional stride used to raise a bare TypeError
    for stride in (0, -1, 1.5, True):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, w, b, stride=stride)
    for up in (0, -1, 1.5, True):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, w, b, up=up)
    # the padding is K // 2, which centres only an odd square kernel
    for shape in ((2, 2, 2, 3), (3, 1, 2, 3)):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, ad.Tensor(rand(*shape)), b)
    # one bias per output channel, and one shift per image and output channel
    for shape in ((2,), (1, 3), ()):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, w, ad.Tensor(np.zeros(shape)))
    for shape in ((3,), (2, 3), (1, 2), (1, 1, 1, 3), ()):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(x, w, b, shift=ad.Tensor(np.zeros(shape)))
    # no input or no output channels used to raise a bare ZeroDivisionError
    # or ValueError
    for xs, ws in (((1, 5, 5, 0), (3, 3, 0, 3)), ((1, 5, 5, 2), (3, 3, 2, 0))):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(ad.Tensor(np.zeros(xs)), ad.Tensor(np.zeros(ws)),
                      ad.Tensor(np.zeros(ws[3])))
    # an empty batch is one empty block: no output, and a zero weight gradient
    w1 = ad.Tensor(rand(3, 3, 2, 3), requires_grad=True)
    out = ad.conv2d(ad.Tensor(np.zeros((0, 5, 5, 2))), w1, b)
    assert out.shape == (0, 5, 5, 3)
    (dw,) = out.node.backward_fn(np.zeros(out.shape))
    assert dw.shape == w1.shape and not dw.any()


def test_conv2d_keeps_no_window_matrix():
    x = ad.Tensor(rand(4, 16, 16, 8), requires_grad=True)
    w = ad.Tensor(rand(3, 3, 8, 8), requires_grad=True)
    b = ad.Tensor(np.zeros(8), requires_grad=True)
    out, kept, _ = traced(lambda: ad.conv2d(x, w, b, stride=1))
    # the window matrix alone would be 9 * x.nbytes
    assert kept < out.data.nbytes + x.data.nbytes


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("per_block", [2, 0.5], ids=["two_images", "under_one_image"])
@pytest.mark.parametrize("stride,k,ci,co,up", [(1, 3, 32, 32, 1), (2, 3, 128, 32, 1),
                                               (1, 1, 128, 128, 1), (2, 1, 512, 128, 1),
                                               (1, 3, 32, 32, 2)],
                         ids=["1-3x3", "2-3x3", "1-1x1", "2-1x1", "up2-1-3x3"])
def test_conv2d_blocks_match_one_block(monkeypatch, per_block, stride, k, ci, co, up):
    # The forward and the input gradient gather as many window elements per
    # image (C_in is 4 C_out at stride 2), so both run the same blocks: 2, 2
    # and 1 images over 5, or one at a time. The sizes are the UNet's: an
    # image is 64 or 256 GEMM rows, and every GEMM runs the BLAS's blocked
    # kernel, which gives a block of rows the bits of one GEMM over the batch.
    # A GEMM of a few rows or about 1e6 multiplies or fewer may take a
    # small-matrix kernel that rounds otherwise. An up conv's x is 8 x 8.
    draw = _draw_for(up, 74)
    x = ad.Tensor(draw(5, 16 // up, 16 // up, ci), requires_grad=True)
    w = ad.Tensor(draw(k, k, ci, co), requires_grad=True)
    b = ad.Tensor(_weights(32, co), requires_grad=True)
    side = (16 - 1) // stride + 1
    g = draw(5, side, side, co)
    per_image = side * side * k * k * ci
    assert per_image == 16 * 16 * k * k * co

    def products(cap):
        monkeypatch.setattr(ops, "WINDOW_BLOCK", cap)
        out = ad.conv2d(x, w, b, stride=stride, up=up)
        return [out.data, *out.node.backward_fn(g)]

    cap = int(per_block * per_image)
    monkeypatch.setattr(ops, "WINDOW_BLOCK", cap)
    sizes = [len(range(5)[b]) for b in ops._image_blocks(5, per_image)]
    assert sizes == ([2, 2, 1] if per_block == 2 else [1] * 5)
    whole = products(5 * per_image)
    out, dx, dw, db = products(cap)
    assert np.array_equal(out, whole[0]) and np.array_equal(dx, whole[1])
    assert np.allclose(dw, whole[2], rtol=1e-12, atol=1e-12)
    assert np.array_equal(db, whole[3])


def _conv_peak(monkeypatch, cores: int, draw) -> tuple:
    """The tracemalloc peak of a conv's forward and backward over inputs
    from ``draw(*shape)``, with the kernels split over ``cores`` cores, and
    the bound that one core's working set keeps under: the input gradient,
    the output, a padded input, a dx canvas and one block of windows, of
    which the size of a padded input and of a block of windows follow."""
    monkeypatch.setattr(ops, "_CORES", cores)
    x = ad.Tensor(draw(16, 32, 32, 16), requires_grad=True)
    w = ad.Tensor(draw(3, 3, 16, 16), requires_grad=True)
    b = ad.Tensor(np.zeros(16), requires_grad=True)
    g = np.ones(x.shape, dtype=x.data.dtype)
    padded = x.data.nbytes * 34 * 34 // (32 * 32)
    block = 4 << 20                 # the windows a block gathers, at most

    def forward_and_backward():
        out = ad.conv2d(x, w, b, stride=1)
        out.node.backward_fn(g)
        return out

    out, _, peak = traced(forward_and_backward)
    # a one-shot window matrix alone would be 9 times x
    return peak, x.data.nbytes + out.data.nbytes + 2 * padded + block, padded, block


def test_conv2d_gathers_a_block_of_images_at_a_time(monkeypatch):
    peak, bound, _, _ = _conv_peak(monkeypatch, 1, rand)
    assert peak < bound


def test_conv2d_gathers_a_block_of_images_per_core(monkeypatch):
    # every thread past the caller's gathers into one more canvas and one
    # more block of windows
    peak, bound, padded, block = _conv_peak(monkeypatch, ops._CORES,
                                            lambda *shape: _weights(44, *shape))
    assert peak < bound + (ops._CORES - 1) * (padded + block)


def _products(monkeypatch, cores: int, window: int, f, *inputs) -> list:
    """The output of ``f(*inputs)`` and every input's gradient for a fixed
    output gradient, with the kernels shared over ``cores`` cores under a
    ``WINDOW_BLOCK`` of ``window``."""
    monkeypatch.setattr(ops, "_CORES", cores)
    monkeypatch.setattr(ops, "WINDOW_BLOCK", window)
    out = f(*inputs)
    return [out.data, *out.node.backward_fn(_weights(43, *out.shape).astype(out.data.dtype))]


@pytest.mark.parametrize("cores", [2, 5])
def test_core_count_moves_no_bit(monkeypatch, cores):
    # 9 images of 16 x 16 x 32 windows at 3 x 3 make 5 blocks, of 2, 2, 2, 2
    # and 1 image, under a cap of 2 images: an odd count, which two cores
    # share unevenly. The group_norm input is above that grain, so each of
    # its passes shares 9 chunks of one image; it must give the bits of one
    # pass over the batch, as on one core under a grain above its size. At
    # 5 cores a pool of 4 threads, whatever the host has, switching every
    # microsecond, takes blocks and chunks as they come and finishes
    # weight-gradient products out of block order. The conv adds a time
    # shift in each block, after its bias; the up conv gathers as many
    # windows from an 8 x 8 input, each of its pixels a 2 x 2 patch.
    window = 2 * 16 * 16 * 9 * 32
    conv = [ad.Tensor(_weights(45, 9, 16, 16, 32), requires_grad=True),
            ad.Tensor(_weights(46, 3, 3, 32, 32), requires_grad=True),
            ad.Tensor(_weights(47, 32), requires_grad=True),
            ad.Tensor(_weights(54, 9, 32), requires_grad=True)]
    up_conv = [ad.Tensor(_weights(77, 9, 8, 8, 32), requires_grad=True), *conv[1:3]]
    norm = [ad.Tensor(_weights(48, 9, 32, 32, 32), requires_grad=True),
            ad.Tensor(1.0 + 0.1 * _weights(49, 32), requires_grad=True),
            ad.Tensor(0.1 * _weights(50, 32), requires_grad=True)]
    monkeypatch.setattr(ops, "WINDOW_BLOCK", window)
    assert len(ops._image_blocks(9, 16 * 16 * 9 * 32)) == 5
    assert window <= norm[0].size < ops.WINDOW_BLOCK << 8

    def shifted(x, w, b, shift):
        return ad.conv2d(x, w, b, shift=shift)

    def upsampling(x, w, b):
        return ad.conv2d(x, w, b, up=2)

    pool, interval = ThreadPoolExecutor(cores - 1), sys.getswitchinterval()
    monkeypatch.setattr(ops, "_POOL", pool)
    sys.setswitchinterval(1e-6)
    try:
        for f, inputs, one_pass in ((shifted, conv, window), (upsampling, up_conv, window),
                                    (ad.group_norm, norm, window << 8)):
            one = _products(monkeypatch, 1, one_pass, f, *inputs)
            many = _products(monkeypatch, cores, window, f, *inputs)
            assert len(one) == 1 + len(inputs)
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(one, many))
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


# Both items of the outer share run at once, one on the pool's only thread,
# and each shares work of its own: that thread must not wait for a pool job
# queued behind itself, which would never start. In a process of its own, so
# that a thread stuck that way cannot hold up this one's exit.
_NESTED_SHARE = """
import threading
from concurrent.futures import ThreadPoolExecutor
from jdl.autodiff import ops
ops._CORES, ops._POOL = 2, ThreadPoolExecutor(1)
both, seen = threading.Barrier(2, timeout=10), []

def outer(i, _):
    both.wait()
    ops._share(range(3), lambda j, _: seen.append((i, j)))

ops._share(range(2), outer)
assert sorted(seen) == [(i, j) for i in range(2) for j in range(3)], seen
"""


def test_share_never_waits_for_a_job_that_has_not_started():
    src = str(Path(ad.__file__).resolve().parents[2])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NESTED_SHARE], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_share_frees_the_buffers_of_a_job_that_never_started(monkeypatch):
    # the pool's one thread is busy, so the caller runs every item, and the
    # job handed to the pool is cancelled while it waits in the pool's
    # queue; the buffers made for that job must not wait there with it
    pool, release = ThreadPoolExecutor(1), threading.Event()
    pool.submit(release.wait, 60)
    monkeypatch.setattr(ops, "_CORES", 2)
    monkeypatch.setattr(ops, "_POOL", pool)
    made, ran = [], []

    def make():
        buffer = np.zeros(4)
        made.append(weakref.ref(buffer))
        return buffer

    try:
        ops._share(range(3), lambda item, mine: ran.append(item), make)
        assert ran == [0, 1, 2] and len(made) == 2
        assert [ref() for ref in made] == [None, None]
    finally:
        release.set()
        pool.shutdown()


def test_conv2d_keeps_no_weight_copy():
    # the dx rule holds the weights: a copy of these 64 -> 64 3x3 ones would
    # be 36 times x
    x = ad.Tensor(np.ones((1, 4, 4, 64)), requires_grad=True)
    w = ad.Tensor(np.ones((3, 3, 64, 64)))
    out, kept, _ = traced(lambda: ad.conv2d(x, w, ad.Tensor(np.zeros(64)), stride=1))
    assert kept < out.data.nbytes + x.data.nbytes


@pytest.mark.usefixtures("float64")
def test_grad_avg_pool2d():
    weight = _weights(1, 2, 2, 2, 3)
    _check(lambda x: weighted_sum(ad.avg_pool2d(x), weight),
           rand(2, 4, 4, 3))


def test_conv2d_up_is_bitwise_a_conv_over_the_repeated_input():
    # the canvas holds what it holds for x repeated 2 x 2, so the blocks, the
    # windows and the GEMMs are the same, and dx is that conv's input
    # gradient summed over each 2 x 2 patch
    g = rand(2, 8, 8, 3)
    x = ad.Tensor(rand(2, 4, 4, 3), requires_grad=True)
    big = ad.Tensor(x.data.repeat(2, 1).repeat(2, 2), requires_grad=True)
    w, w_ref = (ad.Tensor(_weights(64, 3, 3, 3, 3), requires_grad=True) for _ in range(2))
    b, b_ref = (ad.Tensor(_weights(65, 3), requires_grad=True) for _ in range(2))
    out, ref = ad.conv2d(x, w, b, up=2), ad.conv2d(big, w_ref, b_ref)
    assert out.data.dtype == np.float32 and np.array_equal(out.data, ref.data)
    ad.backward(weighted_sum(out, g))
    ad.backward(weighted_sum(ref, g))
    assert np.array_equal(w.grad, w_ref.grad) and np.array_equal(b.grad, b_ref.grad)
    assert np.array_equal(x.grad, big.grad.reshape(2, 4, 2, 4, 2, 3).sum(axis=(2, 4)))


@pytest.mark.usefixtures("float64")
def test_grad_silu():
    weight = _weights(6, 5, 5)
    _check(lambda x: weighted_sum(ad.silu(x), weight), rand(5, 5))


@pytest.mark.usefixtures("float64")
def test_grad_leaky_relu():
    pt = rand(5, 5)
    pt[np.abs(pt) < 0.05] += 0.1  # keep clear of the kink
    weight = _weights(7, 5, 5)
    _check(lambda x: weighted_sum(ad.leaky_relu(x), weight), pt)


@pytest.mark.usefixtures("float64")
def test_grad_group_norm():
    gamma = ad.Tensor(1.0 + 0.1 * rand(4))
    beta = ad.Tensor(0.1 * rand(4))
    wgt = rand(2, 3, 3, 4)
    _check(lambda x: weighted_sum(ad.group_norm(x, gamma, beta), wgt),
           rand(2, 3, 3, 4), tol=2e-4)
    x0 = ad.Tensor(rand(2, 3, 3, 4))
    _check(lambda g: weighted_sum(ad.group_norm(x0, g, beta), wgt),
           1.0 + 0.1 * rand(4))
    _check(lambda b: weighted_sum(ad.group_norm(x0, gamma, b), wgt),
           0.1 * rand(4))
    x1 = ad.Tensor(rand(2, 3, 3, 4), requires_grad=True)
    assert _recorded(ad.group_norm(x1, gamma, beta)) == (x1,)
    g1 = ad.Tensor(gamma.data, requires_grad=True)
    b1 = ad.Tensor(beta.data, requires_grad=True)
    assert _recorded(ad.group_norm(x1, g1, b1)) == (x1, g1, b1)
    # no channels used to raise a bare ZeroDivisionError; no pixels, NaN
    for shape in ((2, 3, 3, 0), (2, 0, 3, 4)):
        c = shape[3]
        with pytest.raises(ShapeMismatch):
            ad.group_norm(ad.Tensor(np.zeros(shape)), ad.Tensor(np.ones(c)),
                          ad.Tensor(np.zeros(c)))


@pytest.mark.usefixtures("float64")
def test_grad_group_norm_two_channels_per_group():
    # C = 8 folds two channels into each of the 4 groups
    r = np.random.default_rng(20)
    gamma = ad.Tensor(1.0 + 0.1 * r.standard_normal(8))
    beta = ad.Tensor(0.1 * r.standard_normal(8))
    wgt = _weights(21, 2, 3, 3, 8)
    x0 = ad.Tensor(r.standard_normal((2, 3, 3, 8)))
    _check(lambda x: weighted_sum(ad.group_norm(x, gamma, beta), wgt),
           r.standard_normal((2, 3, 3, 8)), tol=2e-4)
    _check(lambda g: weighted_sum(ad.group_norm(x0, g, beta), wgt), gamma.data)
    _check(lambda b: weighted_sum(ad.group_norm(x0, gamma, b), wgt), beta.data)


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
    y = ((xg - mu) / np.sqrt(var + 1e-5)).reshape(x.shape) * gamma + beta
    ref = y / (1.0 + np.exp(-y))
    assert np.abs(out - ref).max() <= 5e-5


def _silu_of_group_norm(x, gamma, beta, g):
    """silu(group_norm(x)) in plain numpy, and the x, gamma and beta
    gradients for the output gradient ``g``, pass for pass as a GroupNorm
    node and a ``silu`` node after it compute them."""
    n, h, w, c = x.shape
    cg = c // 4

    def group_mean(per_channel):
        means = per_channel.reshape(n, 4, cg).sum(axis=2) / (h * w * cg)
        return np.repeat(means, cg, axis=1)[:, None, :]

    x3 = x.reshape(n, h * w, c)
    xhat = x3 - group_mean(np.einsum("npc->nc", x3))
    inv = 1.0 / np.sqrt(group_mean(np.einsum("npc,npc->nc", xhat, xhat)) + 1e-5)
    xhat = xhat * inv
    y = xhat * gamma + beta
    s = np.tanh(y * 0.5) * 0.5 + 0.5
    out = y * s
    dy = ((1.0 - s) * out + s) * g.reshape(n, h * w, c)
    m1 = group_mean(np.einsum("npc->nc", dy) * gamma)
    m2 = group_mean(np.einsum("npc,npc->nc", dy, xhat) * gamma)
    dx = dy * (gamma * inv) - xhat * (m2 * inv) - m1 * inv
    return (out.reshape(x.shape), dx.reshape(x.shape),
            np.einsum("npc,npc->c", dy, xhat), np.einsum("npc->c", dy))


@pytest.mark.parametrize("affine_grad", [True, False], ids=["trainable", "frozen"])
def test_group_norm_is_bitwise_silu_of_group_norm(affine_grad):
    r = np.random.default_rng(24)
    x = ad.Tensor(r.standard_normal((4, 8, 8, 32)), requires_grad=True)
    gamma = ad.Tensor(1.0 + 0.1 * r.standard_normal(32), requires_grad=affine_grad)
    beta = ad.Tensor(0.1 * r.standard_normal(32), requires_grad=affine_grad)
    g = ad.Tensor(r.standard_normal(x.shape)).data
    y = ad.group_norm(x, gamma, beta)
    ad.backward(weighted_sum(y, g))
    out, dx, dgamma, dbeta = _silu_of_group_norm(x.data, gamma.data, beta.data, g)
    assert y.data.dtype == x.grad.dtype == np.float32
    assert np.array_equal(y.data, out) and np.array_equal(x.grad, dx)
    if affine_grad:
        assert np.array_equal(gamma.grad, dgamma) and np.array_equal(beta.grad, dbeta)
    else:
        assert gamma.grad is None and beta.grad is None


def test_group_norm_keeps_xhat_and_its_output():
    # a GroupNorm node and a silu node after it kept about 3 x.nbytes: xhat,
    # the sigmoid and the output
    r = np.random.default_rng(25)
    x = ad.Tensor(r.standard_normal((4, 16, 16, 32)), requires_grad=True)
    gamma = ad.Tensor(1.0 + 0.1 * r.standard_normal(32), requires_grad=True)
    beta = ad.Tensor(0.1 * r.standard_normal(32), requires_grad=True)
    ad.group_norm(x, gamma, beta)       # numpy's first-call allocations
    y, kept, _ = traced(lambda: ad.group_norm(x, gamma, beta))
    assert 2 * x.data.nbytes <= kept <= 2.1 * x.data.nbytes


def _check_silu_derivative_built_once(monkeypatch, conv_after: bool, shape=(2, 4, 4, 8),
                                      chunks=((2, 16, 8),)):
    """The group_norm node computes its sigmoid once forward and once in
    backward, one call per chunk of images, of the (images, H*W, C) shapes
    in ``chunks``; with ``conv_after`` a trainable conv after it rebuilds the
    output for its weight gradient, and the node's own rules reuse that
    rebuild's sigmoid."""
    calls = []
    sigmoid = ops._tanh_sigmoid
    monkeypatch.setattr(ops, "_tanh_sigmoid",
                        lambda a, *out: calls.append(a.shape) or sigmoid(a, *out))
    c = shape[3]
    r = np.random.default_rng(26)
    x = ad.Tensor(r.standard_normal(shape), requires_grad=True)
    gamma = ad.Tensor(1.0 + 0.1 * r.standard_normal(c), requires_grad=True)
    beta = ad.Tensor(0.1 * r.standard_normal(c), requires_grad=True)
    w = ad.Tensor(r.standard_normal((3, 3, c, 4)), requires_grad=True)
    h = ad.group_norm(x, gamma, beta)
    y = ad.conv2d(h, w, ad.Tensor(np.zeros(4))) if conv_after else h
    # the threads may finish the chunks in any order
    assert sorted(calls) == sorted(chunks)
    ad.backward(weighted_sum(y, r.standard_normal(y.shape)))
    assert sorted(calls) == sorted(chunks * 2)
    assert all(t.grad is not None for t in (x, gamma, beta))
    assert (w.grad is not None) == conv_after
    # the rebuilt output and sigmoid went with the rule that took them:
    # the rebuild holds xhat alone
    assert len([a for a in _arrays_held(h.rebuild) if a.size == h.size]) == 1


def test_group_norm_builds_the_silu_derivative_once(monkeypatch):
    _check_silu_derivative_built_once(monkeypatch, conv_after=False)


def test_group_norm_builds_the_silu_derivative_once_with_a_conv_after(monkeypatch):
    _check_silu_derivative_built_once(monkeypatch, conv_after=True)


@pytest.mark.parametrize("conv_after", [False, True], ids=["alone", "conv_after"])
def test_group_norm_builds_the_silu_derivative_once_above_the_grain(monkeypatch, conv_after):
    # 4 x 64 x 64 x 64 is WINDOW_BLOCK elements, so each pass shares its 4
    # images over the cores in chunks of one image
    assert 4 * 64 * 64 * 64 == ops.WINDOW_BLOCK
    _check_silu_derivative_built_once(monkeypatch, conv_after, (4, 64, 64, 64),
                                      [(1, 64 * 64, 64)] * 4)


def _arrays_held(fn) -> list:
    """Every distinct array that the function ``fn`` holds through its
    closure, and through the closures of the functions, tensors, lists and
    tuples held there, each once."""
    found, seen, todo = [], set(), [fn]
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, ad.Tensor):
            todo.append(value.data)
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        elif callable(value):
            todo.extend(cell.cell_contents for cell in getattr(value, "__closure__", None) or ())
    return found


def test_silu_keeps_no_input():
    # group_norm's rules read xhat and rebuild the SiLU's sigmoid, so the
    # conv output that feeds it in the UNet is freed once the caller lets
    # go of it, and the one full-size array they hold is xhat
    x = ad.Tensor(rand(2, 4, 4, 8), requires_grad=True)
    gamma = ad.Tensor(1.0 + 0.1 * rand(8), requires_grad=True)
    beta = ad.Tensor(0.1 * rand(8), requires_grad=True)
    h = ad.mul(x, 1.5)
    y = ad.group_norm(h, gamma, beta)
    alive = weakref.ref(h.data)
    del h
    assert alive() is None
    full = [a for a in _arrays_held(y.node.backward_fn) if a.size == y.size]
    assert len(full) == 1 and not np.shares_memory(full[0], y.data)
    ad.backward(weighted_sum(y, rand(2, 4, 4, 8)))
    assert x.grad is not None and np.isfinite(x.grad).all()


# every primitive that gives its output a rebuild, each called as
# f(x, gamma, beta)
REBUILDERS = ["group_norm"]


def _conv_after(producer: str, seed: int):
    """A trainable conv over the output of the trainable ``producer``, one
    of ``REBUILDERS``: (conv output, producer output, producer input, conv
    weights and bias)."""
    r = np.random.default_rng(seed)
    # x outsizes the weights, so the tests can tell them apart by size
    x = ad.Tensor(r.standard_normal((2, 6, 6, 8)), requires_grad=True)
    h = getattr(ad, producer)(x, ad.Tensor(1.0 + 0.1 * r.standard_normal(8), requires_grad=True),
                              ad.Tensor(0.1 * r.standard_normal(8), requires_grad=True))
    w = ad.Tensor(r.standard_normal((3, 3, 8, 4)), requires_grad=True)
    b = ad.Tensor(r.standard_normal(4), requires_grad=True)
    return ad.conv2d(h, w, b), h, x, w, b


@pytest.mark.parametrize("producer", REBUILDERS)
def test_rebuild_is_set_only_on_a_recorded_output_and_gives_its_bits(producer):
    y, h, x, _, _ = _conv_after(producer, 40)
    assert h.rebuild is not None and y.rebuild is None
    rebuilt = h.rebuild()
    assert rebuilt.dtype == h.data.dtype == np.float32
    assert np.array_equal(rebuilt, h.data) and not np.shares_memory(rebuilt, h.data)
    # nothing to rebuild for: no graph under no_grad, or no input that
    # requires grad
    with ad.no_grad():
        assert _conv_after(producer, 40)[1].rebuild is None
    frozen = [ad.Tensor(x.data), ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8))]
    assert getattr(ad, producer)(*frozen).rebuild is None


@pytest.mark.parametrize("producer", REBUILDERS)
def test_conv_holds_no_copy_of_a_rebuildable_input(producer):
    # the weight gradient rebuilds its input, so the producer's output is
    # freed once the caller lets go of it, and the conv's rules hold no
    # array of its size beyond those the producer's own rules hold
    y, h, x, w, b = _conv_after(producer, 41)
    g = np.random.default_rng(42).standard_normal(y.shape)
    held_data = h.data.copy()
    alive = weakref.ref(h.data)
    producer_held = {id(a) for a in _arrays_held(h.node.backward_fn)}
    del h
    assert alive() is None
    held = [a for a in _arrays_held(y.node.backward_fn) if a.size >= x.size]
    # xhat, which the group_norm rules hold anyway
    assert len(held) == 1 and id(held[0]) in producer_held
    # the weight and bias gradients are those of a conv over a held input
    ad.backward(weighted_sum(y, g))
    w_ref = ad.Tensor(w.data, requires_grad=True)
    b_ref = ad.Tensor(b.data, requires_grad=True)
    ad.backward(weighted_sum(ad.conv2d(ad.Tensor(held_data), w_ref, b_ref), g))
    assert np.array_equal(w.grad, w_ref.grad) and np.array_equal(b.grad, b_ref.grad)


def test_up_conv_holds_its_input_and_no_upsampled_copy():
    # a dec.up conv's input is a residual sum, which has no rebuild: the
    # rules hold its data, a quarter of the size of the upsampled input,
    # which never exists
    r = np.random.default_rng(41)
    x = ad.Tensor(r.standard_normal((2, 6, 6, 8)), requires_grad=True)
    w = ad.Tensor(r.standard_normal((3, 3, 8, 4)), requires_grad=True)
    y = ad.conv2d(x, w, ad.Tensor(r.standard_normal(4), requires_grad=True), up=2)
    held = [a for a in _arrays_held(y.node.backward_fn) if a.size >= x.size]
    assert len(held) == 1 and held[0] is x.data
    assert y.shape == (2, 12, 12, 4)


def test_silu_far_out_is_finite_and_quiet():
    x = ad.Tensor([-1e4, 1e4], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.silu(x)
        ad.backward(weighted_sum(out, [3.0, 5.0]))
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
    w = r.standard_normal((2, 3, 3, 8))
    branches = {"silu": lambda: ad.silu(a), "group_norm": lambda: ad.group_norm(b, gamma, beta)}
    order = ["silu", "group_norm"] if silu_first else ["group_norm", "silu"]
    outs = [branches[name]() for name in order if lone in (None, name)]
    y = outs[0] if lone else ad.add(*outs)
    return weighted_sum(y, w), {"silu": (a,), "group_norm": (b, gamma, beta)}


@pytest.mark.parametrize("silu_first", [True, False], ids=["group_norm_vjp_first",
                                                           "silu_vjp_first"])
def test_backward_writes_into_no_array_it_does_not_own(monkeypatch, silu_first):
    held = {}   # kind -> every array that its rules keep, with a copy
    real = ops.record

    def record(kind, out_data, *rules):
        if kind in ("silu", "group_norm"):
            arrays = _arrays_held(tuple(vjp for _, vjp in rules))
            held[kind] = [(a, a.copy()) for a in arrays]
        return real(kind, out_data, *rules)

    monkeypatch.setattr(ops, "record", record)
    loss, leaves = _add_of_two_branches(silu_first)
    inputs = [(t.data, t.data.copy()) for group in leaves.values() for t in group]
    ad.backward(loss)
    # silu's s and output; group_norm's xhat, 1/std, gamma and beta
    assert {kind: len(arrays) for kind, arrays in held.items()} == {"silu": 2, "group_norm": 4}
    for array, before in inputs + held["silu"] + held["group_norm"]:
        assert np.array_equal(array, before)
    for name, group in leaves.items():
        alone, alone_leaves = _add_of_two_branches(silu_first, lone=name)
        ad.backward(alone)
        for t, ref in zip(group, alone_leaves[name]):
            assert np.array_equal(t.grad, ref.grad), name


@pytest.mark.usefixtures("float64")
def test_grad_concat():
    other = ad.Tensor(rand(2, 2, 2, 3))
    weight = rand(2, 2, 2, 5)
    _check(lambda x: weighted_sum(ad.concat(x, other), weight),
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
    _check(lambda x: ad.mul(weighted_sum(ad.reshape(x, (6,)), weight), 1.0 / 6),
           rand(2, 3))
    # every dim is an integer >= 0: (-2, -2) used to raise a bare ValueError,
    # and 2.5 ran as 2
    x4 = ad.Tensor(np.ones(4))
    for shape in ((-2, -2), (2.5, 2), (True, 4), (5,)):
        with pytest.raises(ShapeMismatch):
            ad.reshape(x4, shape)


@pytest.mark.usefixtures("float64")
def test_grad_mse():
    target = rand(3, 4)
    _check(lambda x: ad.mse(x, target), rand(3, 4))
    x = rand(3, 4)
    assert ad.mse(ad.Tensor(x), target).item() == pytest.approx(np.mean((x - target) ** 2),
                                                                rel=1e-12)
    pred = ad.Tensor(rand(3, 4), requires_grad=True)
    assert _recorded(ad.mse(pred, target)) == (pred,)
    with pytest.raises(ShapeMismatch):
        ad.mse(pred, target.T)


@pytest.mark.usefixtures("float64")
def test_grad_bce_with_logits():
    y = (rand(4, 3) > 0).astype(float)
    _check(lambda x: ad.bce_with_logits(x, y), rand(4, 3))
    # the stable form agrees with softplus(x) - x*y, far out too
    for scale in (1.0, 50.0):
        x = scale * rand(4, 3)
        ref = np.mean(np.logaddexp(0.0, x) - x * y)
        assert ad.bce_with_logits(ad.Tensor(x), y).item() == pytest.approx(ref, rel=1e-12)
    graph = ad.Tensor(rand(4, 3), requires_grad=True)
    assert _recorded(ad.bce_with_logits(graph, y)) == (graph,)
    with pytest.raises(ShapeMismatch):
        ad.bce_with_logits(graph, y.reshape(-1))


@pytest.mark.parametrize("loss", [ad.mse, ad.bce_with_logits], ids=["mse", "bce"])
def test_losses_reject_an_empty_prediction(loss):
    # each used to return NaN after a RuntimeWarning, and mse's backward then
    # raised a bare ZeroDivisionError
    for shape in ((0, 3), (3, 0), (0,)):
        with pytest.raises(ShapeMismatch):
            loss(ad.Tensor(np.zeros(shape), requires_grad=True), np.zeros(shape))


@pytest.mark.usefixtures("float64")
def test_grad_conv_group_norm_composite():
    w = ad.Tensor(0.3 * rand(3, 3, 2, 4))
    gamma = ad.Tensor(np.ones(4))
    beta = ad.Tensor(np.zeros(4))
    b = ad.Tensor(0.1 * _weights(33, 4))

    def f(x):
        h = ad.conv2d(x, w, b, stride=1)
        return weighted_sum(ad.group_norm(h, gamma, beta))

    _check(f, rand(1, 4, 4, 2))


def _check_every_input(f, inputs: dict, tol: dict) -> None:
    """``_check`` the scalar ``f(**tensors)`` in each input in turn, every
    other input a tensor that requires grad, so every rule of the graph runs
    and each node's output has a ``rebuild``."""
    for name, point in inputs.items():
        others = {k: ad.Tensor(v, requires_grad=True) for k, v in inputs.items() if k != name}
        _check(lambda t: f(**others, **{name: t}), point, tol=tol.get(name, 1e-4))


@pytest.mark.usefixtures("float64")
def test_grad_group_norm_conv_composite_every_input_trainable():
    # the UNet's order: the conv's weight gradient reads group_norm's
    # rebuilt output
    r = rand(2, 4, 4, 3)

    def f(x, gamma, beta, w, b):
        return weighted_sum(ad.conv2d(ad.group_norm(x, gamma, beta), w, b), r)

    _check_every_input(f, {"x": rand(2, 4, 4, 4), "gamma": 1.0 + 0.1 * rand(4),
                           "beta": 0.1 * rand(4), "w": 0.3 * rand(3, 3, 4, 3),
                           "b": 0.1 * _weights(34, 3)}, tol={"x": 2e-4})


@pytest.mark.usefixtures("float64")
def test_grad_upsample_conv_composite_every_input_trainable():
    # the decoder's dec.up convs: the weight gradient gathers its windows
    # from the quarter-size input, each pixel a 2 x 2 patch
    r = rand(2, 8, 8, 3)

    def f(h, w, b):
        return weighted_sum(ad.conv2d(h, w, b, up=2), r)

    _check_every_input(f, {"h": rand(2, 4, 4, 2), "w": 0.3 * rand(3, 3, 2, 3),
                           "b": 0.1 * _weights(35, 3)}, tol={})


@pytest.mark.usefixtures("float64")
def test_two_layer_net_against_finite_differences():
    w1 = ad.Tensor(0.5 * rand(6, 8), requires_grad=True)
    w2 = ad.Tensor(0.5 * rand(8, 1), requires_grad=True)
    x0 = ad.Tensor(rand(4, 6))
    y0 = rand(4, 1)

    def net_loss(w1d, w2d):
        h = ad.leaky_relu(ad.matmul(x0, w1d))
        return ad.mse(ad.matmul(h, w2d), y0)

    _check(lambda w: net_loss(w, ad.Tensor(w2.data)), w1.data)
    _check(lambda w: net_loss(ad.Tensor(w1.data), w), w2.data)


@pytest.mark.usefixtures("float64")
def test_grad_check_sum_of_squares_tight():
    err = grad_check(lambda x: ad.reshape(ad.matmul(ad.reshape(x, (1, 10)),
                                                    ad.reshape(x, (10, 1))), ()),
                     ad.Tensor(rand(10)))
    assert err < 1e-7


def test_grad_check_rejects_f_not_finite_at_the_point():
    with pytest.raises(ValueError, match="not finite at the point"):
        grad_check(lambda x: ad.mul(weighted_sum(x), np.nan), ad.Tensor(np.ones(3)))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_fanout_linearity(n, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal(n)
    x = ad.Tensor(a, requires_grad=True)
    # x feeds two consumers; grads must sum
    ad.backward(ad.add(weighted_sum(ad.mul(x, 2.0)), weighted_sum(ad.mul(x, 5.0))))
    assert np.allclose(x.grad, 7.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mse_zero_on_identical(seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((3, 3))
    assert ad.mse(ad.Tensor(a), a).item() == 0.0


def test_op_count_context():
    x = ad.Tensor(rand(2, 2), requires_grad=True)
    with ad.op_count() as counts:
        ad.matmul(ad.mul(x, 2.0), x)
    assert counts == {"mul": 1, "matmul": 1}


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
    _, _, peak = traced(lambda: ad.load_weights(path))
    # the arrays alone are 1x; a copy of the file on top of them is 2x
    assert peak < 1.25 * path.stat().st_size


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jdlw"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(CheckpointMismatch):
        ad.load_weights(path)
    # two records named "w": the second used to replace the first silently
    ad.save_weights(path, {"w": np.array([1.0, 2.0])})
    first = path.read_bytes()
    ad.save_weights(path, {"w": np.array([7.0, 8.0])})
    path.write_bytes(first + path.read_bytes()[len(b"JDLW1"):])
    with pytest.raises(CheckpointMismatch, match="second record named 'w'"):
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
