"""Differentiable primitives.

Forward functions compute with plain numpy and hand ``record`` one
``(parent, vjp)`` pair per input, each vjp mapping the output gradient to
that input's gradient. No primitive asks which inputs require grad:
``record`` keeps the rules of those that do and drops the others. So an
input-only backward runs no weight-gradient GEMM and no reduction for
``gamma``, ``beta`` or a bias.

The spatial primitives (``conv2d``, ``avg_pool2d``, ``upsample_nearest``,
``group_norm``) take and return channel-last NHWC batches, the
cache-friendly direction for the im2col gather; no other axis order exists
inside the graph. They fix the geometry the UNet fixes rather than take it
as arguments: a convolution is same-padded (by K // 2, for an odd square
kernel K), pooling and upsampling work by 2, and ``concat`` joins two
tensors. Convolutions gather windows from strided views and
multiply with one BLAS GEMM, and keep no window matrix for the backward:
the weight gradient gathers the windows again from the input it already
holds. The input gradient is one GEMM and a scatter that loops over the
(small) kernel footprint, so the reduction order is fixed and results do not
depend on worker count.

The elementwise kernels make few full passes, most of them in place, rather
than one temporary per numpy op: ``silu`` builds its sigmoid in one buffer,
and ``group_norm`` takes each per-group statistic as one per-channel
reduction, with the variance centred.
A primitive writes in place only into buffers it allocated itself, never
into an input's data, an array that a kept vjp holds, or the output
gradient ``g``, which ``add``'s vjp hands to both of its parents.

Broadcasting is deliberately narrow: identical shapes, scalar against
tensor, and singleton-dimension bias adds. Anything else needs an explicit
reshape so every backward rule stays auditable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch, is_count
from .tensor import Tensor, record


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _broadcast_allowed(sa: tuple, sb: tuple) -> bool:
    if sa == sb:
        return True
    if np.prod(sa, dtype=int) == 1 or np.prod(sb, dtype=int) == 1:
        return True
    if len(sa) == len(sb):
        return all(a == b or a == 1 or b == 1 for a, b in zip(sa, sb))
    # trailing bias: (F,) against (..., F)
    short, long = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    return len(short) == 1 and long[-1] == short[0]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were expanded by broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcast_allowed(a.shape, b.shape):
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")
    return record("add", a.data + b.data,
                  (a, lambda g: _unbroadcast(g, a.shape)),
                  (b, lambda g: _unbroadcast(g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcast_allowed(a.shape, b.shape):
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")
    return record("mul", a.data * b.data,
                  (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                  (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    return record("matmul", a.data @ b.data,
                  (a, lambda g: g @ b.data.T),
                  (b, lambda g: a.data.T @ g))


def _im2col_nhwc(xp: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Materialize the K×K windows of a padded NHWC batch as (N*OH*OW, K*K*C).

    The innermost (kw, c) run is contiguous in memory, which makes this the
    cheap direction for the gather.
    """
    n, hp, wp, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (n, oh, ow, k, k, c),
        (s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False)
    return np.ascontiguousarray(view).reshape(n * oh * ow, k * k * c)


def _col2im_nhwc(dcols: np.ndarray, n, c, hp, wp, k, stride, oh, ow) -> np.ndarray:
    """Adjoint of the NHWC im2col: scatter-add per kernel tap."""
    acc = np.zeros((n, hp, wp, c), dtype=dcols.dtype)
    d6 = dcols.reshape(n, oh, ow, k, k, c)
    for i in range(k):
        for j in range(k):
            acc[:, i:i + oh * stride:stride,
                j:j + ow * stride:stride, :] += d6[:, :, :, i, j, :]
    return acc


def _nhwc_dims(x: Tensor) -> tuple:
    if x.data.ndim != 4:
        raise ShapeMismatch(f"need a 4-d NHWC batch, got {x.shape}")
    return x.shape


def conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """2-d cross-correlation of an NHWC batch, zero-padded by K // 2, with
    (K, K, C_in, C_out) weights for odd K, which the GEMM reads in place.
    The NHWC output has side (H - 1) // stride + 1.

    No window matrix outlives the call: the weight gradient rebuilds the
    windows from x when it runs, so a conv costs its backward one extra
    gather instead of holding K*K copies of x until then.
    """
    if w.data.ndim != 4:
        raise ShapeMismatch(f"conv2d: weights {w.shape}")
    n, h, wid, c = _nhwc_dims(x)
    k, kw, ci, co = w.shape
    if k != kw or k % 2 == 0:
        raise ShapeMismatch(f"conv2d: a {k}x{kw} kernel is not square and odd")
    if ci != c:
        raise ShapeMismatch(f"conv2d: {c} input channels, weights expect {ci}")
    if not is_count(stride) or stride < 1:
        raise ShapeMismatch(f"conv2d: stride {stride!r} must be an integer >= 1")
    if h < 1 or wid < 1:
        raise ShapeMismatch(f"conv2d: empty input {x.shape}")
    p = k // 2
    oh, ow = (h - 1) // stride + 1, (wid - 1) // stride + 1
    xd = x.data

    def windows():
        xp = np.pad(xd, ((0, 0), (p, p), (p, p), (0, 0))) if p else xd
        return _im2col_nhwc(xp, k, stride, oh, ow)

    wmat = w.data.reshape(k * k * c, co)
    out = (windows() @ wmat).reshape(n, oh, ow, co)

    def dx(g):
        dxp = _col2im_nhwc(g.reshape(n * oh * ow, co) @ wmat.T,
                           n, c, h + 2 * p, wid + 2 * p, k, stride, oh, ow)
        return dxp[:, p:p + h, p:p + wid, :]

    def dw(g):
        dwmat = windows().T @ g.reshape(n * oh * ow, co)
        return dwmat.reshape(w.shape)

    return record("conv2d", out, (x, dx), (w, dw))


def avg_pool2d(x: Tensor) -> Tensor:
    """Average of each non-overlapping 2×2 window of an NHWC batch; H and W
    must be even."""
    n, h, w, c = _nhwc_dims(x)
    if h % 2 or w % 2:
        raise ShapeMismatch(f"avg_pool2d: 2x2 windows do not tile {h}x{w}")
    oh, ow = h // 2, w // 2
    out = x.data.reshape(n, oh, 2, ow, 2, c).mean(axis=(2, 4))

    def dx(g):
        gd = np.broadcast_to(g[:, :, None, :, None, :] / 4, (n, oh, 2, ow, 2, c))
        return gd.reshape(n, h, w, c).copy()

    return record("avg_pool2d", out, (x, dx))


def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour upsampling of an NHWC batch by 2: each pixel
    becomes a 2×2 block."""
    n, h, w, c = _nhwc_dims(x)
    return record("upsample_nearest", x.data.repeat(2, axis=1).repeat(2, axis=2),
                  (x, lambda g: g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; select the numerator, then divide once
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)
    return record("sigmoid", out, (x, lambda g: g * out * (1.0 - out)))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x). The sigmoid s = 0.5 * tanh(x / 2) + 0.5 never
    overflows; it takes four passes in place over one buffer, which the vjp
    keeps, and the output one more. The vjp computes
    g * s * (1 + x * (1 - s)) in five passes in place over one new buffer.
    """
    xd = x.data
    s = np.multiply(xd, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5

    def dx(g):
        d = 1.0 - s
        d *= xd
        d += 1.0
        d *= s
        d *= g
        return d

    return record("silu", xd * s, (x, dx))


def leaky_relu(x: Tensor) -> Tensor:
    """Leaky ReLU with negative slope 0.2."""
    return record("leaky_relu", np.where(x.data >= 0, x.data, 0.2 * x.data),
                  (x, lambda g: np.where(x.data >= 0, g, 0.2 * g)))


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Group normalization of an NHWC batch over (H, W, C/G) per sample and
    group, with G = min(4, C), eps 1e-5 and per-channel ``gamma`` and
    ``beta`` of shape (C,).

    It works on the (N, H·W, C) view. Each per-group statistic is a
    per-channel reduction, ``einsum("npc->nc")`` or
    ``einsum("npc,npc->nc")``, summed over the C/G channels of its group
    and broadcast back with ``repeat``. The variance is centred: the mean
    is subtracted into the kernel's own ``xhat`` buffer first, and the
    variance is the mean of its squares, because E[x²] − E[x]² cancels
    float32 digits when a group's mean is large. The forward makes two
    reductions and four elementwise passes: the centring into ``xhat``, its
    scaling in place and the affine into the output. The dx makes two
    reductions, over the output gradient and its product with ``xhat``, and
    four elementwise passes into two new buffers. The ``gamma`` and ``beta``
    gradients are one reduction each.
    """
    n, h, w, c = _nhwc_dims(x)
    g_ = min(4, c)
    if c % g_:
        raise ShapeMismatch(f"group_norm: {g_} groups do not divide {c} channels")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatch("group_norm: gamma/beta must have shape (C,)")
    cg = c // g_
    count = h * w * cg

    def group_mean(per_channel):
        """(N, C) channel sums -> (N, 1, C) means of each channel's group."""
        means = per_channel.reshape(n, g_, cg).sum(axis=2) / count
        return np.repeat(means, cg, axis=1)[:, None, :]

    x3 = x.data.reshape(n, h * w, c)
    xhat = x3 - group_mean(np.einsum("npc->nc", x3))
    var = group_mean(np.einsum("npc,npc->nc", xhat, xhat))
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def dx(gr):
        g3 = gr.reshape(n, h * w, c)
        # the means of dxhat = g * gamma and of dxhat * xhat, per group
        m1 = group_mean(np.einsum("npc->nc", g3) * gamma.data)
        m2 = group_mean(np.einsum("npc,npc->nc", g3, xhat) * gamma.data)
        d = g3 * (gamma.data * inv)
        d -= xhat * (m2 * inv)
        d -= m1 * inv
        return d.reshape(n, h, w, c)

    return record("group_norm", out.reshape(n, h, w, c), (x, dx),
                  (gamma, lambda gr: np.einsum("npc,npc->c", gr.reshape(n, h * w, c), xhat)),
                  (beta, lambda gr: np.einsum("npc->c", gr.reshape(n, h * w, c))))


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Join ``a`` and ``b`` along the last (channel) axis; every other axis
    must match."""
    if a.data.ndim != b.data.ndim or a.data.ndim < 1 or a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatch(f"concat: {b.shape} against {a.shape}")
    ca = a.shape[-1]
    return record("concat", np.concatenate([a.data, b.data], axis=-1),
                  (a, lambda g: g[..., :ca]), (b, lambda g: g[..., ca:]))


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if np.prod(shape, dtype=int) != x.size:
        raise ShapeMismatch(f"reshape: {x.shape} -> {shape}")
    orig = x.shape
    return record("reshape", x.data.reshape(shape), (x, lambda g: g.reshape(orig)))


def sum(x: Tensor) -> Tensor:  # noqa: A001 - mirrors the primitive name
    return record("sum", np.asarray(x.data.sum()),
                  (x, lambda g: np.broadcast_to(g, x.shape).astype(x.data.dtype, copy=True)))


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements, reduced to a scalar."""
    if pred.shape != target.shape:
        raise ShapeMismatch(f"mse: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = pred.size
    out = np.asarray((diff * diff).mean())
    return record("mse", out,
                  (pred, lambda g: (2.0 / n) * diff * g),
                  (target, lambda g: -((2.0 / n) * diff * g)))


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy against sigmoid(logits), numerically stable."""
    if logits.shape != targets.shape:
        raise ShapeMismatch(f"bce_with_logits: {logits.shape} vs {targets.shape}")
    x, y = logits.data, targets.data
    n = logits.size
    # max(x,0) - x*y + log(1 + exp(-|x|))
    out = np.asarray((np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))).mean())
    return record("bce_with_logits", out,
                  (logits, lambda g: (_sigmoid(x) - y) * (g / n)),
                  (targets, lambda g: -x * (g / n)))
