"""Differentiable primitives.

Forward functions compute with plain numpy and hand ``record`` one
``(parent, vjp)`` pair per tensor input, each vjp mapping the output
gradient to that input's gradient. No primitive asks which inputs require
grad: ``record`` keeps the rules of those that do and drops the others. So an
input-only backward runs no weight-gradient GEMM and no reduction for
``gamma``, ``beta`` or a bias.

The spatial primitives (``conv2d``, ``avg_pool2d``, ``group_norm``) take
and return channel-last NHWC batches, the cache-friendly direction for the
im2col gather; no other axis order exists inside the graph. They fix the
geometry the UNet fixes rather than take it as arguments: a convolution is
same-padded (by K // 2, for an odd square kernel K), pooling works by 2,
and ``concat`` joins two tensors. A convolution is one graph node that does
a conv's whole job: it upsamples its input to the nearest neighbour if
asked (``up``), and adds its (C_out,) bias, and a per-image (N, C_out)
shift if given, in place into its output, as ``matmul`` adds a linear
layer's (F,) bias.

Every convolution product runs a block of images at a time, as many as
keep the windows it gathers under ``WINDOW_BLOCK`` elements (4 MiB of
float32), and at least one: it writes the block into the interior of a
zeroed canvas, gathers the block's windows from strided views of it and
multiplies them in one BLAS GEMM. Each product zeroes one canvas for each
thread that runs its blocks and reuses it for every block that thread
takes, since only the interior is ever written: the forward and the
weight gradient write each input pixel as an up×up patch, and the input
gradient writes the output gradient at every stride-th pixel of a canvas
the size of the padded upsampled input, whose stride-1 convolution with
the kernel rotated 180° and its channel axes swapped, summed over each
up×up patch, is the input gradient. No window matrix, canvas or upsampled
input is kept for the backward: the weight gradient gathers the windows
again from the input. It holds the input only when the input's producer
cannot rebuild it; ``group_norm`` can (``Tensor.rebuild``), so a conv after
it holds no copy of its input. The forward and the input gradient write
each block's GEMM into that block's rows of one output, which at the UNet's
sizes is bitwise one GEMM over the batch. The weight gradient sums the
blocks' GEMMs in block order, so its rounding depends on the block count.
Every sum runs inside a GEMM or over the blocks in that fixed order,
neither of which depends on the BLAS thread count or the core count
(``test_results_independent_of_blas_threads`` checks it).

The elementwise kernels make few full passes, most of them in place, rather
than one temporary per numpy op: ``silu`` builds its sigmoid in one buffer,
and ``group_norm``, a GroupNorm and the SiLU after it as one node, takes
each per-group statistic as one per-channel reduction, with the variance
centred. Their vjps keep only what they read: ``silu``'s keeps its sigmoid
and its output, never its input. ``group_norm``'s keep ``xhat`` and the
inverse spread, never the input, the sigmoid or the output: their backward
rebuilds the output and its sigmoid from ``xhat`` once per node, for the
three rules and the weight gradient of the conv after it to share. A
primitive writes in place only into buffers it allocated itself, never into
an input's data, an array that a kept vjp holds, or the output gradient
``g``, which ``add``'s vjp hands to both of its parents.

The products and the larger ``group_norm`` passes use every core the
process may run on (``_CORES``, its CPU affinity). ``_share`` hands a list
of items, in order, to whichever thread asks first: the calling thread and
``_POOL``'s, one for each further core. So a core that another process
slows takes fewer items, and the caller waits for at most one. The items
are a conv product's blocks of images, and chunks of a ``group_norm``
input's images for its per-image passes: the statistics and ``xhat``, the
output and its rebuild, the SiLU derivative and dx. ``group_norm`` shares
them only from ``WINDOW_BLOCK`` input elements on: below that, handing
work to a thread costs more than it saves. Each image's bits are those of
the one thread that ran it, whichever that was, so the core count moves no
bit; every sum over the batch keeps one order: the ``gamma``, ``beta`` and
bias reductions run on the calling thread, and the weight gradient adds
its per-block products in block order (``test_core_count_moves_no_bit``).
A worker writes only into arrays that the calling thread allocated: rows
of the output, a canvas, a window buffer and a temporary for each thread,
and slots for the weight gradient's per-block products. The malloc arena
of a worker thread keeps what it allocates resident: a prototype whose
workers allocated their own window buffers added 15 MiB to the resident
set of a default train step and 5.5 MiB to an 8-image guided ε, while with
the calling thread's buffers the benchmark's peak RSS moves by under 1 MiB.
BLAS must run on one thread: the pool already fills the cores, and narrow
GEMMs of the UNet's shapes ran 20–27× slower on two OpenBLAS threads.
Graph construction, ``record``, the op counters and ``backward`` stay on
the calling thread.

Only the rules the model runs exist. ``add`` joins two tensors of one
shape, the UNet's residuals, so each gradient is ``g`` itself. ``mul`` scales
a tensor by a real constant, and the losses take their targets as constant
arrays, so each of the three records one rule.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..errors import ConfigInvalid, ShapeMismatch, is_count, is_real
from .tensor import Tensor, record

# The most window elements a conv product gathers at once: 4 MiB of float32.
WINDOW_BLOCK = 1 << 20

# The cores this process may run on, and one pool thread for each core
# past the caller's; the pool starts its threads on first use.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(max(1, _CORES - 1), thread_name_prefix="jdl-ops")


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` for two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {b.shape} against {a.shape}")
    return record("add", a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def mul(x: Tensor, c) -> Tensor:
    """``x`` times the real constant ``c``, cast once to ``x``'s dtype."""
    if not is_real(c):
        raise ConfigInvalid(f"mul: the factor must be a real number, got {type(c).__name__}")
    c = np.asarray(c, dtype=x.data.dtype)
    return record("mul", x.data * c, (x, lambda g: g * c))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b`` for 2-d ``a`` and ``b``, plus the (F,) ``bias`` in place if given."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    if bias is not None and bias.shape != b.shape[1:]:
        raise ShapeMismatch(f"matmul: bias {bias.shape} for {b.shape[1]} columns")
    out = a.data @ b.data
    rules = [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)]
    if bias is not None:
        out += bias.data
        rules.append((bias, lambda g: g.sum(axis=0)))
    return record("matmul", out, *rules)


def _windows(xp: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """The K×K windows of a padded NHWC batch at ``stride``, as an
    (N, OH, OW, K, K, C) view of it whose copy is the (N*OH*OW, K*K*C) window
    matrix. The innermost (kw, c) run is contiguous in memory, which makes
    this the cheap direction for the gather."""
    n, hp, wp, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, oh, ow, k, k, c),
        (s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False)


def _image_blocks(n: int, per_image: int) -> list:
    """Slices over a batch of ``n`` images, as many per slice as keep its
    ``per_image`` window elements each under ``WINDOW_BLOCK``, and at least
    one; an empty batch gets one empty slice."""
    step = max(1, WINDOW_BLOCK // per_image)
    return [slice(i, i + step) for i in range(0, max(n, 1), step)]


def _share(items, job, make=lambda: None) -> None:
    """``job(item, mine)`` for each of ``items``, handed out in their order
    to whichever thread asks first: the calling thread and up to
    ``_CORES - 1`` threads of ``_POOL``. A thread that another process
    slows down takes fewer items, so the caller waits for at most the one
    item that thread holds. ``mine`` is what ``make()`` returned for the
    thread that runs the job; the calling thread makes it for every thread
    before any starts, and a pool job takes it when it starts, so a job that
    has not started when the caller returns holds none. Returns once every
    job is done, and raises what a job raised."""
    spare = [make() for _ in range(max(1, min(_CORES, len(items))))]
    left, lock = iter(items), threading.Lock()

    def loop():
        buffers = spare.pop()
        while True:
            with lock:
                item = next(left, None)
            if item is None:
                return
            job(item, buffers)

    others = [_POOL.submit(loop) for _ in spare[1:]]
    try:
        loop()
    finally:
        # a job that has not started by now would find no item left; not
        # waiting for it keeps a job that shares work from a pool thread
        # from waiting on itself
        started = [f for f in others if not f.cancel()]
        wait(started)
        spare.clear()
    for f in started:
        f.result()


def _each_window_block(a: np.ndarray, blocks: list, k: int, h: int, w: int,
                       put: int, take: int, use, fill: int = 1) -> None:
    """Call ``use(j, windows)`` for each block ``blocks[j]`` of the NHWC
    batch ``a``, with the block's images written at every ``put``-th pixel,
    each pixel as a ``fill``×``fill`` patch, from offset p = K // 2 into the
    interior of an (images, h + 2p, w + 2p, C) canvas, and ``windows`` the
    (images*OH*OW, K*K*C) matrix of the canvas's K×K windows at stride
    ``take``.

    The blocks are shared over the cores (``_share``). Each thread gathers
    into one zeroed canvas and one window buffer of its own, as many
    images deep as the first block, which every block it takes reuses:
    only the same strided interior is ever written, so the border and the
    gaps between strided pixels stay zero. ``windows`` is valid until
    ``use`` returns.
    """
    p, c = k // 2, a.shape[3]
    oh, ow = (h - 1) // take + 1, (w - 1) // take + 1
    depth = len(a[blocks[0]])

    def buffers():
        return (np.zeros((depth, h + 2 * p, w + 2 * p, c), dtype=a.dtype),
                np.empty((depth * oh * ow, k * k * c), dtype=a.dtype))

    def job(j, mine):
        canvas, windows = mine
        ab = a[blocks[j]]
        m = len(ab)
        for di in range(fill):
            for dj in range(fill):
                canvas[:m, p + di:p + h:put, p + dj:p + w:put] = ab
        cols = windows[:m * oh * ow]
        np.copyto(cols.reshape(m, oh, ow, k, k, c), _windows(canvas[:m], k, take, oh, ow))
        use(j, cols)

    _share(range(len(blocks)), job, buffers)


def _nhwc_dims(x: Tensor) -> tuple:
    if x.data.ndim != 4:
        raise ShapeMismatch(f"need a 4-d NHWC batch, got {x.shape}")
    return x.shape


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1,
           shift: Tensor | None = None, up: int = 1) -> Tensor:
    """2-d cross-correlation of an NHWC batch, upsampled by ``up`` to the
    nearest neighbour and zero-padded by K // 2, with (K, K, C_in, C_out)
    weights for odd K, which the GEMM reads in place, plus the (C_out,) bias
    ``b`` and, when given, the (N, C_out) ``shift`` of each image. The NHWC
    output has side (up·H - 1) // stride + 1.

    Each of the three products pads, gathers and multiplies a block of
    images at a time (``_image_blocks``). The forward and the input
    gradient write each block's GEMM into its own rows of one output, and
    the forward adds the bias, then the shift, there in place. A GEMM over
    a block's rows gives them the bits of one GEMM over the batch when both
    run OpenBLAS's blocked kernel, as the UNet's do; one of about 1e6
    multiplies or fewer may take a small-matrix kernel that rounds
    otherwise. The weight gradient sums the blocks' GEMMs in block order;
    the bias gradient sums g over N, H, then W, and the shift's over H, then
    W. The cores share the blocks (``_share``): each image's bits are those
    of the one thread that ran it, the weight gradient adds the blocks'
    products in block order whichever thread made them, and the bias and
    shift gradients run on the calling thread, so no bit depends on the
    core count.

    Every product pads through ``_each_window_block``: one zeroed canvas
    per thread, reused by each block that thread takes. The forward and the
    weight gradient write each pixel of a block of x into it as an up×up
    patch, so the upsampled x never exists; the input gradient writes blocks
    of the output gradient at every stride-th pixel of a canvas the size of
    the padded upsampled input, multiplies its K×K windows by the kernel
    rotated 180° with its channel axes swapped, which it builds only when it
    runs, and sums each up×up patch of that product into one pixel of x.
    No window matrix or canvas outlives the call that made it: the weight
    gradient gathers the windows again from x, in a canvas of its own, so
    a conv costs its backward one extra gather instead of holding K*K
    copies of x until then. It holds x itself only when ``x.rebuild`` is
    unset; otherwise it calls ``x.rebuild()`` when it runs, and x's data
    lives only as long as the caller holds it.
    """
    if w.data.ndim != 4:
        raise ShapeMismatch(f"conv2d: weights {w.shape}")
    n, h, wid, c = _nhwc_dims(x)
    k, kw, ci, co = w.shape
    if k != kw or k % 2 == 0:
        raise ShapeMismatch(f"conv2d: a {k}x{kw} kernel is not square and odd")
    if ci != c:
        raise ShapeMismatch(f"conv2d: {c} input channels, weights expect {ci}")
    if b.shape != (co,):
        raise ShapeMismatch(f"conv2d: bias {b.shape} for {co} output channels")
    if shift is not None and shift.shape != (n, co):
        raise ShapeMismatch(f"conv2d: shift {shift.shape} for {n} images of {co} channels")
    for name, factor in (("stride", stride), ("up", up)):
        if not is_count(factor) or factor < 1:
            raise ShapeMismatch(f"conv2d: {name} {factor!r} must be an integer >= 1")
    if min(h, wid, c, co) < 1:
        raise ShapeMismatch(f"conv2d: empty input {x.shape} or weights {w.shape}")
    uh, uw = up * h, up * wid
    oh, ow = (uh - 1) // stride + 1, (uw - 1) // stride + 1
    xd, wd, bd = x.data, w.data, b.data
    x_again = x.rebuild or (lambda: xd)
    blocks = _image_blocks(n, oh * ow * k * k * c)

    out = np.empty((n, oh, ow, co), dtype=np.result_type(xd, wd))
    wmat = wd.reshape(k * k * c, co)

    def forward(j, cols):
        ob = out[blocks[j]]
        np.matmul(cols, wmat, out=ob.reshape(-1, co))
        ob += bd
        if shift is not None:
            ob += shift.data[blocks[j], None, None, :]

    _each_window_block(xd, blocks, k, uh, uw, up, stride, forward, up)

    def dx(g):
        w_rot = wd[::-1, ::-1].swapaxes(2, 3).reshape(k * k * co, c)
        d = np.empty((n, uh, uw, c), dtype=np.result_type(g, w_rot))
        g_blocks = _image_blocks(n, uh * uw * k * k * co)

        def product(j, cols):
            np.matmul(cols, w_rot, out=d[g_blocks[j]].reshape(-1, c))

        _each_window_block(g, g_blocks, k, uh, uw, stride, 1, product)
        return d if up == 1 else d.reshape(n, h, up, wid, up, c).sum(axis=(2, 4))

    def dw(g):
        xs = x_again()
        dwmat = np.zeros((k * k * c, co), dtype=np.result_type(xs, g))
        # each block's product goes into a free slot, and the thread that
        # completes the blocks from the first one not yet summed adds them
        # in block order, so the sum is the same at every core count; an
        # added slot is free again, so few slots are ever written
        slots = np.empty((len(blocks), k * k * c, co), dtype=dwmat.dtype)
        free, done, lock = list(range(len(blocks))), {}, threading.Lock()
        added = 0

        def product(j, cols):
            nonlocal added
            with lock:
                s = free.pop()
            np.matmul(cols.T, g[blocks[j]].reshape(-1, co), out=slots[s])
            with lock:
                done[j] = s
                while added in done:
                    s = done.pop(added)
                    np.add(dwmat, slots[s], out=dwmat)
                    free.append(s)
                    added += 1

        _each_window_block(xs, blocks, k, uh, uw, up, stride, product, up)
        return dwmat.reshape(w.shape)

    rules = [(x, dx), (w, dw), (b, lambda g: g.sum(axis=0).sum(axis=0).sum(axis=0))]
    if shift is not None:
        rules.append((shift, lambda g: g.sum(axis=1).sum(axis=1)))
    return record("conv2d", out, *rules)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; select the numerator, then divide once
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _tanh_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(x) as 0.5 * tanh(x / 2) + 0.5, which never overflows: four
    passes in place over ``out``, or over one new buffer."""
    s = np.multiply(x, 0.5, out=out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def _silu_vjp(s: np.ndarray, y: np.ndarray, g: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """g * (s + y * (1 - s)), the gradient at the input of a SiLU whose
    sigmoid is s and whose output is y, for its output gradient g: four
    passes in place over ``out``, or over one new buffer."""
    d = np.subtract(1.0, s, out=out)
    d *= y
    d += s
    d *= g
    return d


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), the sigmoid from ``_tanh_sigmoid`` and the output one
    more pass. The vjp keeps s and the output, not x, and runs
    ``_silu_vjp``. The UNet runs it on the time MLP alone; every GroupNorm's
    SiLU is part of ``group_norm``.
    """
    xd = x.data
    s = _tanh_sigmoid(xd)
    out = xd * s
    return record("silu", out, (x, lambda g: _silu_vjp(s, out, g)))


def leaky_relu(x: Tensor) -> Tensor:
    """Leaky ReLU with negative slope 0.2."""
    return record("leaky_relu", np.where(x.data >= 0, x.data, 0.2 * x.data),
                  (x, lambda g: np.where(x.data >= 0, g, 0.2 * g)))


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Group normalization of an NHWC batch followed by SiLU, as one node:
    y = xhat * ``gamma`` + ``beta`` and the output y * sigmoid(y), where
    xhat normalises x over (H, W, C/G) per sample and group, with
    G = min(4, C), eps 1e-5 and per-channel ``gamma`` and ``beta`` of shape
    (C,). Every GroupNorm in the UNet feeds a SiLU, so no other form exists.

    It works on the (N, H·W, C) view. Each per-group statistic is a
    per-channel reduction, ``einsum("npc->nc")`` or
    ``einsum("npc,npc->nc")``, summed over the C/G channels of its group
    and broadcast back with ``repeat``. The variance is centred: the mean
    is subtracted into the kernel's own ``xhat`` buffer first, and the
    variance is the mean of its squares, because E[x²] − E[x]² cancels
    float32 digits when a group's mean is large. The forward makes two
    reductions, the centring into ``xhat``, its scaling in place, the
    affine into the output, the sigmoid of ``_tanh_sigmoid`` and one more
    pass that multiplies the output by it in place; a rebuild runs the same
    passes.

    The rules keep ``xhat``, the inverse spread 1/σ and the ``gamma`` and
    ``beta`` arrays: no input, no sigmoid and no output. An output with a
    node rebuilds itself from them (``Tensor.rebuild``): the affine, the
    sigmoid s and the product, in the forward's passes, kept together with
    s until this node's backward takes them. The conv after it in the UNet
    calls it for its weight gradient, so the conv holds no copy of the
    output. The first rule to run for an output gradient g takes the
    rebuilt output and s, rebuilding them if no conv did, and makes
    dy = g * (s + y s (1 - s)), the gradient at y, by ``_silu_vjp``; the
    output and s are freed on return, and the x, ``gamma`` and ``beta``
    rules share dy, which goes with them when ``backward`` drops the node's
    rules, before the next node runs. The dx makes two reductions, over dy
    and its product with ``xhat``, and four elementwise passes into a new
    buffer and a temporary of one chunk per thread. The ``gamma`` and
    ``beta`` gradients are one reduction of dy each, on the calling thread.
    Every pass runs in the order that a GroupNorm node and a ``silu`` node
    after it ran them, so the output and every gradient keep those nodes'
    bits; from ``WINDOW_BLOCK`` elements on, the per-image passes run over
    chunks of images that the cores share (``_share``).
    """
    n, h, w, c = _nhwc_dims(x)
    if min(h, w, c) < 1:
        raise ShapeMismatch(f"group_norm: empty input {x.shape}")
    g_ = min(4, c)
    if c % g_:
        raise ShapeMismatch(f"group_norm: {g_} groups do not divide {c} channels")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatch("group_norm: gamma/beta must have shape (C,)")
    cg = c // g_
    count = h * w * cg
    gd, bd = gamma.data, beta.data

    # the per-image passes run over chunks of images, which the cores share
    # once the input holds WINDOW_BLOCK elements: below that, handing work
    # to a thread costs more than it saves. A chunk holds at most an eighth
    # of that, so a core that runs faster takes more chunks.
    chunks = _image_blocks(n, 8 * h * w * c) if x.size >= WINDOW_BLOCK else [slice(0, n)]

    def group_mean(per_channel):
        """(M, C) channel sums -> (M, 1, C) means of each channel's group."""
        means = per_channel.reshape(-1, g_, cg).sum(axis=2) / count
        return np.repeat(means, cg, axis=1)[:, None, :]

    x3 = x.data.reshape(n, h * w, c)
    xhat = np.empty_like(x3)
    inv = np.empty((n, 1, c), dtype=x3.dtype)

    def normalise(r, _):
        xr, hr = x3[r], xhat[r]
        np.subtract(xr, group_mean(np.einsum("npc->nc", xr)), out=hr)
        var = group_mean(np.einsum("npc,npc->nc", hr, hr))
        np.divide(1.0, np.sqrt(var + 1e-5), out=inv[r])
        hr *= inv[r]

    _share(chunks, normalise)

    def output():
        """The output y * s and the sigmoid s of y = xhat * gamma + beta,
        in the passes that the forward and every rebuild run."""
        y, s = np.empty_like(xhat), np.empty_like(xhat)

        def affine(r, _):
            yr = y[r]
            np.multiply(xhat[r], gd, out=yr)
            yr += bd
            _tanh_sigmoid(yr, s[r])
            yr *= s[r]

        _share(chunks, affine)
        return y, s

    rebuilt = []    # (output, s) from rebuild(), until silu_grad takes them
    shared = []     # (g, dy) for the output gradient the rules last saw

    def rebuild():
        """The output, rebuilt bitwise as the forward made it."""
        if not rebuilt:
            rebuilt[:] = output()
        return rebuilt[0].reshape(n, h, w, c)

    def silu_grad(g):
        """dy for the output gradient ``g``, made by the first rule that
        asks for it."""
        if shared and shared[0] is g:
            return shared[1]
        rebuild()
        y, s = rebuilt
        rebuilt.clear()
        d = np.empty_like(y)
        g3 = g.reshape(n, h * w, c)

        _share(chunks, lambda r, _: _silu_vjp(s[r], y[r], g3[r], d[r]))
        shared[:] = (g, d)
        return d

    def dx(g):
        dy = silu_grad(g)
        d = np.empty_like(dy)

        def grad(r, t):
            dyr, hr, ir, dr = dy[r], xhat[r], inv[r], d[r]
            # the means of dxhat = dy * gamma and of dxhat * xhat, per group
            m1 = group_mean(np.einsum("npc->nc", dyr) * gd)
            m2 = group_mean(np.einsum("npc,npc->nc", dyr, hr) * gd)
            np.multiply(dyr, gd * ir, out=dr)
            dr -= np.multiply(hr, m2 * ir, out=t[:len(dr)])
            dr -= m1 * ir

        _share(chunks, grad, lambda: np.empty_like(dy[chunks[0]]))
        return d.reshape(n, h, w, c)

    result = record("group_norm", output()[0].reshape(n, h, w, c), (x, dx),
                    (gamma, lambda g: np.einsum("npc,npc->c", silu_grad(g), xhat)),
                    (beta, lambda g: np.einsum("npc->c", silu_grad(g))))
    if result.node is not None:
        result.rebuild = rebuild
    return result


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Join ``a`` and ``b`` along the last (channel) axis; every other axis
    must match."""
    if a.data.ndim != b.data.ndim or a.data.ndim < 1 or a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatch(f"concat: {b.shape} against {a.shape}")
    ca = a.shape[-1]
    return record("concat", np.concatenate([a.data, b.data], axis=-1),
                  (a, lambda g: g[..., :ca]), (b, lambda g: g[..., ca:]))


def reshape(x: Tensor, shape) -> Tensor:
    """``x`` in ``shape``, every dim of which is an integer >= 0."""
    shape = tuple(shape)
    if not all(is_count(s) and s >= 0 for s in shape):
        raise ShapeMismatch(f"reshape: dims must be integers >= 0, got {shape}")
    if np.prod(shape, dtype=int) != x.size:
        raise ShapeMismatch(f"reshape: {x.shape} -> {shape}")
    orig = x.shape
    return record("reshape", x.data.reshape(shape), (x, lambda g: g.reshape(orig)))


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements, reduced to a scalar, against a
    constant ``target`` array cast to ``pred``'s dtype; an empty ``pred``
    has no mean, and raises ``ShapeMismatch``."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if pred.shape != target.shape or pred.size == 0:
        raise ShapeMismatch(f"mse: {pred.shape} vs {target.shape}, need one non-empty shape")
    diff = pred.data - target
    n = pred.size
    out = np.asarray((diff * diff).mean())
    return record("mse", out, (pred, lambda g: (2.0 / n) * diff * g))


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy against sigmoid(logits), numerically stable,
    with constant ``targets`` cast to the logits' dtype; empty ``logits``
    have no mean, and raise ``ShapeMismatch``."""
    y = np.asarray(targets, dtype=logits.data.dtype)
    if logits.shape != y.shape or logits.size == 0:
        raise ShapeMismatch(
            f"bce_with_logits: {logits.shape} vs {y.shape}, need one non-empty shape")
    x = logits.data
    n = logits.size
    # max(x,0) - x*y + log(1 + exp(-|x|))
    out = np.asarray((np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))).mean())
    return record("bce_with_logits", out, (logits, lambda g: (_sigmoid(x) - y) * (g / n)))
