"""Joint parametrization: UNet denoiser whose encoder features feed a
classifier head.

The encoder (nu) runs the down path, the middle block and the shared time
MLP; the decoder (psi) runs the up path and the output head; the classifier
(omega) is two fully connected layers over the bottleneck features.
Encoder weights are stored once and referenced by both tasks, so gradients
from either loss land in the same arrays.

The architecture is fixed; ``UNetConfig`` sets only sizes. Each stage has
one residual block on the way down (``enc.s{i}r0``) and one on the way up
(``dec.s{i}``). Every GroupNorm uses min(4, C) groups and eps 1e-5, and the
classifier's hidden layer is a LeakyReLU of slope 0.2. The classifier reads
the bottleneck flattened: average-pooled by 2 when its side is even, as it
is when odd. ``cls.fc1`` takes as many inputs as that gives, 2048 at the
default config.

The forward is the only description of the network. Parameters come into
being on ``build``'s one forward pass: each layer asks ``_param`` for its
weights by name and shape, and during that pass a missing one is created
from the input it meets. The pass runs the encoder, then the decoder, then
the head, and each block asks for gn1, conv1, time, gn2, conv2 and skip in
that order, so the ``model-init`` stream is drawn in a fixed order and a
seed fixes every initial weight (and the ``params`` order, which the
checkpoints and the optimizer groups follow).

The graph is NHWC only, like every spatial primitive in ``autodiff``. NCHW
appears only at ``JointModel``'s public methods: inputs are turned
channel-last and cast to the compute dtype (float32) once on entry
(``_as_nhwc_leaf``), and the arrays that ``predict_noise`` and
``class_score_grad`` hand back, in that dtype, are turned back on exit.
``denoise`` and ``classify`` return the channel-last graph tensors that the
training losses differentiate.

A guided sampling step needs the noise prediction and the classifier's input
gradient at the same (z_t, t), and both start from the same encoder pass.
``encode`` runs that pass once and returns an ``Encoding``: a requires-grad
input leaf, the bottleneck, the skips and the time vector, graph-linked over
detached views of the weights. ``class_score_grad`` backpropagates through
it to the leaf only, which consumes the graph and writes no ``.grad`` into
``params``; ``predict_noise`` then decodes the kept activations under
``no_grad``. Both methods also take a plain NCHW batch and run their own
pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigInvalid, ShapeMismatch, TimestepOutOfRange, is_count
from .rng import stream


@dataclass(frozen=True)
class UNetConfig:
    input_channels: int = 1
    base_channels: int = 32
    channel_multipliers: tuple = (1, 2, 4)
    time_embed_dim: int = 64
    image_side: int = 32
    num_classes: int = 3
    classifier_hidden: int = 256

    def __post_init__(self):
        sizes = (self.input_channels, self.base_channels, *self.channel_multipliers,
                 self.time_embed_dim, self.image_side, self.num_classes,
                 self.classifier_hidden)
        if not all(is_count(v) for v in sizes):
            raise ConfigInvalid(f"sizes and channel multipliers must be integers, got {self}")
        if self.base_channels < 8 or self.base_channels % 4:
            # every stage's GroupNorm splits its channels into 4 groups
            raise ConfigInvalid("base_channels must be a multiple of 4 and >= 8")
        if not self.channel_multipliers or min(self.channel_multipliers) < 1:
            raise ConfigInvalid("channel_multipliers must be one or more values >= 1")
        if min(self.input_channels, self.image_side, self.num_classes,
               self.classifier_hidden, self.time_embed_dim) < 1:
            raise ConfigInvalid("channel, side, class, hidden and embedding sizes must be >= 1")
        down = 2 ** (len(self.channel_multipliers) - 1)
        if self.image_side % down:
            raise ConfigInvalid(
                f"image_side {self.image_side} not divisible by {down}")
        if self.time_embed_dim % 2:
            raise ConfigInvalid("time_embed_dim must be even")

    @property
    def stage_channels(self) -> tuple:
        return tuple(self.base_channels * m for m in self.channel_multipliers)


def _nchw(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose(0, 3, 1, 2))


@dataclass
class Encoding:
    """One encoder pass at timestep ``t``, for both halves of a guided step.

    The graph runs from ``leaf`` over detached weights, so a backward from
    it reaches the leaf alone. ``class_score_grad`` consumes it;
    ``predict_noise`` reads only the tensors' data.
    """
    leaf: Tensor              # NHWC input, requires grad
    bottleneck: Tensor
    skips: list
    temb: Tensor
    t: object                 # int or per-item array, as passed to ``encode``


def time_embedding(t, dim: int, n: int) -> np.ndarray:
    """Sinusoidal embedding of timestep ``t`` for a batch of ``n``: an
    (n, dim) array whose rows interleave (sin, cos) pairs at frequencies
    10000^(-2i/dim). ``t`` is one timestep for the whole batch or one per
    item. Raises ``ConfigInvalid`` for an odd ``dim`` and ``TimestepOutOfRange``
    for a ``t`` that is neither, or that is not of an integer dtype and
    >= 0."""
    if dim % 2:
        raise ConfigInvalid(f"embedding dim must be even, got {dim}")
    t = np.asarray(t)
    if t.shape not in ((), (n,)):
        raise TimestepOutOfRange(f"timesteps of shape {t.shape} for a batch of {n}")
    if not np.issubdtype(t.dtype, np.integer) or np.any(t < 0):
        # a NaN timestep would turn every output into NaN without a word
        raise TimestepOutOfRange(f"timesteps must be whole numbers >= 0, got {t}")
    t = np.broadcast_to(t, (n,))
    half = dim // 2
    freqs = 10_000.0 ** (-2.0 * np.arange(half) / dim)
    ang = t[:, None] * freqs[None, :]
    out = np.empty((n, dim))
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out


def _as_nhwc_leaf(z, requires_grad: bool = False) -> Tensor:
    """Turn an NCHW numpy batch into an NHWC leaf of the compute dtype."""
    z = np.asarray(z)
    if z.ndim != 4:
        raise ShapeMismatch(f"expected a 4-d NCHW batch, got {z.shape}")
    return Tensor(np.ascontiguousarray(z.transpose(0, 2, 3, 1)),
                  requires_grad=requires_grad)


class JointModel:
    """Shared-encoder denoiser + classifier. Frozen weights are safe to
    share across threads; training needs exclusive access."""

    def __init__(self, cfg: UNetConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params
        self._init_rng = None    # the ``model-init`` stream, only while ``build`` runs

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, cfg: UNetConfig, seed: int = 0) -> "JointModel":
        """A freshly initialised model: its parameters are created by one
        forward pass (encoder, decoder, then head) on a zero image at t = 1,
        each where the forward first asks ``_param`` for it, drawing from the
        ``model-init`` stream of ``seed`` in that order."""
        model = cls(cfg, {})
        model._init_rng = stream(seed, "model-init")
        z = Tensor(np.zeros((1, cfg.image_side, cfg.image_side, cfg.input_channels)))
        with ad.no_grad():
            bottleneck, skips, temb = model._encode(z, 1)
            model._decode(bottleneck, skips, temb)
            model._head(bottleneck)
        model._init_rng = None
        return model

    def _param(self, name: str, shape: tuple, fill: float | None = None) -> Tensor:
        """The parameter ``name``. While ``build`` runs, it is created at
        ``shape``, filled with ``fill``, or He-normal over its fan-in, every
        weight being (..., fan_in, fan_out), when ``fill`` is None; at any
        other time a missing name raises ``KeyError``."""
        if self._init_rng is None:
            return self.params[name]
        if fill is None:
            fan_in = int(np.prod(shape[:-1]))
            data = np.sqrt(2.0 / fan_in) * self._init_rng.standard_normal(shape)
        else:
            data = np.full(shape, fill)
        p = self.params[name] = Tensor(data, requires_grad=True)
        return p

    # -- forward pieces (channel-last throughout) ----------------------------

    def _conv(self, name, h, cout, k=3, stride=1, zero=False):
        w = self._param(f"{name}.w", (k, k, h.shape[3], cout), 0.0 if zero else None)
        h = ad.conv2d(h, w, stride=stride)
        return ad.add(h, self._param(f"{name}.b", (cout,), 0.0))

    def _linear(self, name, h, fout, zero=False):
        w = self._param(f"{name}.w", (h.shape[-1], fout), 0.0 if zero else None)
        return ad.add(ad.matmul(h, w), self._param(f"{name}.b", (fout,), 0.0))

    def _norm(self, name, h):
        c = h.shape[3]
        return ad.group_norm(h, self._param(f"{name}.g", (c,), 1.0),
                             self._param(f"{name}.b", (c,), 0.0))

    def _res(self, name, x, temb, cout):
        h = self._conv(f"{name}.conv1", ad.silu(self._norm(f"{name}.gn1", x)), cout)
        tproj = self._linear(f"{name}.time", temb, cout)
        h = ad.add(h, ad.reshape(tproj, (tproj.shape[0], 1, 1, cout)))
        h = self._conv(f"{name}.conv2", ad.silu(self._norm(f"{name}.gn2", h)), cout)
        skip = x if x.shape[3] == cout else self._conv(f"{name}.skip", x, cout, k=1)
        return ad.add(h, skip)

    def _time_vec(self, t, n) -> Tensor:
        emb = Tensor(time_embedding(t, self.cfg.time_embed_dim, n))
        return ad.silu(self._linear("enc.time.fc", emb, self.cfg.time_embed_dim))

    def _encode(self, z: Tensor, t):
        cfg = self.cfg
        n, h, w, c = z.shape
        if (c, h, w) != (cfg.input_channels, cfg.image_side, cfg.image_side):
            raise ShapeMismatch(
                f"input ({c}, {h}, {w}) does not match config "
                f"({cfg.input_channels}, {cfg.image_side}, {cfg.image_side})")
        temb = self._time_vec(t, n)
        chans = cfg.stage_channels
        h = self._conv("enc.stem", z, chans[0])
        skips = []
        for i, ch in enumerate(chans):
            h = self._res(f"enc.s{i}r0", h, temb, ch)
            skips.append(h)
            if i < len(chans) - 1:
                h = self._conv(f"enc.down{i}", h, ch, stride=2)
        h = self._res("enc.mid", h, temb, chans[-1])
        return h, skips, temb

    def _decode(self, bottleneck: Tensor, skips, temb) -> Tensor:
        chans = self.cfg.stage_channels
        h = bottleneck
        for i in reversed(range(len(chans))):
            h = self._res(f"dec.s{i}", ad.concat(h, skips[i]), temb, chans[i])
            if i > 0:
                h = self._conv(f"dec.up{i}", ad.upsample_nearest(h), chans[i - 1])
        h = ad.silu(self._norm("dec.outgn", h))
        return self._conv("dec.out", h, self.cfg.input_channels, zero=True)

    def _head(self, bottleneck: Tensor) -> Tensor:
        h = ad.avg_pool2d(bottleneck) if bottleneck.shape[1] % 2 == 0 else bottleneck
        n, side, _, c = h.shape
        h = ad.reshape(h, (n, side * side * c))
        h = ad.leaky_relu(self._linear("cls.fc1", h, self.cfg.classifier_hidden))
        return self._linear("cls.fc2", h, self.cfg.num_classes, zero=True)

    # -- public API (NCHW numpy at the boundary) ------------------------------

    def denoise(self, z, t) -> Tensor:
        """Predicted noise for NCHW ``z`` as a channel-last (N, H, W, C)
        graph tensor over the model's weights."""
        return self._decode(*self._encode(_as_nhwc_leaf(z), t))

    def classify(self, z, t) -> Tensor:
        """Class logits; runs encoder and head only, never the decoder."""
        leaf = _as_nhwc_leaf(z)
        bottleneck, _, _ = self._encode(leaf, t)
        return self._head(bottleneck)

    def _frozen(self) -> "JointModel":
        """The same weight arrays as graph constants (no copy): a graph built
        through this view differentiates its input only."""
        return JointModel(self.cfg, {k: Tensor(p.data) for k, p in self.params.items()})

    def encode(self, z, t) -> Encoding:
        """Run the encoder once on NCHW ``z`` from a requires-grad leaf."""
        leaf = _as_nhwc_leaf(z, requires_grad=True)
        bottleneck, skips, temb = self._frozen()._encode(leaf, t)
        return Encoding(leaf, bottleneck, skips, temb, t)

    def _encoding(self, z, t) -> Encoding:
        if not isinstance(z, Encoding):
            return self.encode(z, t)
        if not np.array_equal(z.t, t):
            raise TimestepOutOfRange(f"encoding was made at t={z.t}, not t={t}")
        return z

    def predict_noise(self, z, t) -> np.ndarray:
        """Predicted noise as an NCHW array, under ``no_grad``. ``z`` is an
        NCHW batch or an ``Encoding`` at ``t``, whose activations are decoded
        without running the encoder again."""
        with ad.no_grad():
            enc = self._encoding(z, t)
            return _nchw(self._decode(enc.bottleneck, enc.skips, enc.temb).data)

    def class_probs(self, z: np.ndarray, t) -> np.ndarray:
        with ad.no_grad():
            return ad.sigmoid(self.classify(z, t)).data

    def class_score_grad(self, z, t, class_idx: int,
                         toward: bool = True) -> np.ndarray:
        """d/dz of sum_i log p(y_k | z_i) over the batch, as an NCHW array.

        ``toward`` uses log sigma(logit_k); otherwise log(1 - sigma(logit_k)).
        ``z`` is an NCHW batch or an ``Encoding`` at ``t``, whose graph the
        backward consumes. Backward runs through the head and the encoder to
        the input only; no parameter gets a ``.grad``.
        """
        if not is_count(class_idx) or not 0 <= class_idx < self.cfg.num_classes:
            raise ConfigInvalid(f"class {class_idx} outside [0, {self.cfg.num_classes})")
        enc = self._encoding(z, t)
        frozen = self._frozen()
        logits = frozen._head(enc.bottleneck)
        onehot = Tensor(np.eye(self.cfg.num_classes)[:, [class_idx]])
        picked = ad.matmul(logits, onehot)                     # (N, 1)
        n = picked.shape[0]
        target = np.ones((n, 1)) if toward else np.zeros((n, 1))
        # log sigma(x) = -softplus(-x) = -n * bce(x, 1); complement uses bce(x, 0)
        score = ad.mul(ad.bce_with_logits(picked, Tensor(target)), -float(n))
        ad.backward(score)
        return _nchw(enc.leaf.grad)

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter by a copy of its entry in ``arrays``, cast
        to the parameter's own dtype; raises ``CheckpointMismatch``, before
        changing anything, unless each one is there at its shape."""
        ad.check_shapes(arrays, {k: v.shape for k, v in self.params.items()})
        for k, v in self.params.items():
            v.data = np.array(arrays[k], dtype=v.data.dtype)
