"""Joint parametrization: UNet denoiser whose encoder features feed a
classifier head.

The encoder (nu) runs the down path, the middle block and the shared time
MLP; the decoder (psi) runs the up path and the output head; the classifier
(omega) is two fully connected layers over the bottleneck features.
Encoder weights are stored once and referenced by both tasks, so gradients
from either loss land in the same arrays.

The architecture is fixed; ``UNetConfig`` sets only sizes. Each stage has
one residual block on the way down (``enc.s{i}r0``) and one on the way up
(``dec.s{i}``). A conv or linear layer is one graph node that adds its bias,
and a block's first conv adds the block's time projection as its shift. The
decoder upsamples as DDPM does, to the nearest neighbour by 2 and then a
3×3 conv, and that conv (``dec.up{i}``) is one node that upsamples its own
input, so the upsampled activation never exists.
Every GroupNorm uses min(4, C) groups and eps 1e-5 and feeds a SiLU, and
the pair is one graph node, ``ad.group_norm``; ``ad.silu`` runs alone only
after the time MLP's linear layer. The classifier's hidden layer is a
LeakyReLU of slope 0.2. The classifier flattens the bottleneck,
average-pooled by 2 when its side is even and unpooled when its side is
odd. ``cls.fc1`` takes as many inputs as that gives, 2048 at the default
config.

The forward is the only description of the network. Parameters come into
being on ``build``'s one forward pass: each layer asks ``_param`` for its
weights by name and shape, and during that pass a missing one is created
from the input it meets. The pass runs the encoder, then the decoder, then
the head, and each block asks for gn1, conv1, time, gn2, conv2 and skip in
that order, so the ``model-init`` stream is drawn in a fixed order and a
seed fixes every initial weight (and the ``params`` order, which the
checkpoints and the optimizer groups follow).

Images have one channel: the phantoms are grayscale. Every public array
is an (N, 1, S, S) batch for ``image_side`` S, and the graph is NHWC, like
every spatial primitive in ``autodiff``. ``_encode`` is the one boundary: it
rejects any other input shape, makes the leaf from the batch as given, cast
to the compute dtype (float32), and its first graph op reshapes that leaf to
(N, S, S, 1); ``_decode``'s last op reshapes back to (N, 1, S, S). At one
channel the two shapes hold the same values in the same order, so neither
reshape copies or reorders anything.

``_encode`` returns every encoder pass as an ``Encoding``: the input leaf,
the bottleneck, the skips and the time vector. A guided sampling step needs
the noise prediction and the classifier's input gradient at the same
(z_t, t), so ``encode`` runs that pass once from a requires-grad leaf,
graph-linked over detached views of the weights. ``class_score_grad``
backpropagates through it to the leaf only, which consumes the graph and
writes no ``.grad`` into ``params``; ``predict_noise`` then decodes the kept
activations under ``no_grad``. Both methods also take a plain batch and run
their own pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff.ops import _sigmoid
from .errors import ConfigInvalid, ShapeMismatch, TimestepOutOfRange, is_count
from .rng import stream


@dataclass(frozen=True)
class UNetConfig:
    input_channels: ClassVar[int] = 1     # grayscale; not a setting
    base_channels: int = 32
    channel_multipliers: tuple = (1, 2, 4)
    time_embed_dim: int = 64
    image_side: int = 32
    num_classes: int = 3
    classifier_hidden: int = 256

    def __post_init__(self):
        sizes = (self.base_channels, *self.channel_multipliers,
                 self.time_embed_dim, self.image_side, self.num_classes,
                 self.classifier_hidden)
        if not all(is_count(v) for v in sizes):
            raise ConfigInvalid(f"sizes and channel multipliers must be integers, got {self}")
        if self.base_channels < 8 or self.base_channels % 4:
            # every stage's GroupNorm splits its channels into 4 groups
            raise ConfigInvalid("base_channels must be a multiple of 4 and >= 8")
        if not self.channel_multipliers or min(self.channel_multipliers) < 1:
            raise ConfigInvalid("channel_multipliers must be one or more values >= 1")
        if min(self.image_side, self.num_classes, self.classifier_hidden,
               self.time_embed_dim) < 1:
            raise ConfigInvalid("side, class, hidden and embedding sizes must be >= 1")
        down = 2 ** (len(self.channel_multipliers) - 1)
        if self.image_side % down:
            raise ConfigInvalid(
                f"image_side {self.image_side} not divisible by {down}")
        if self.time_embed_dim % 2:
            raise ConfigInvalid("time_embed_dim must be even")

    @property
    def stage_channels(self) -> tuple:
        return tuple(self.base_channels * m for m in self.channel_multipliers)


@dataclass
class Encoding:
    """One encoder pass at timestep ``t`` from the input ``leaf``.

    From ``encode``, the one pass both halves of a guided step share, the
    leaf requires grad and the graph runs over detached weights, so a
    backward from it reaches the leaf alone. ``class_score_grad`` consumes
    it; ``predict_noise`` reads only the tensors' data.
    """
    leaf: Tensor              # (N, 1, S, S) input
    bottleneck: Tensor
    skips: list
    temb: Tensor
    t: object                 # int or per-item array, as passed to ``_encode``


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
        with ad.no_grad():
            enc = model._encode(np.zeros((1, 1, cfg.image_side, cfg.image_side)), 1)
            model._decode(enc)
            model._head(enc.bottleneck)
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

    def _conv(self, name, h, cout, k=3, stride=1, zero=False, shift=lambda: None, up=1):
        w = self._param(f"{name}.w", (k, k, h.shape[3], cout), 0.0 if zero else None)
        b = self._param(f"{name}.b", (cout,), 0.0)
        return ad.conv2d(h, w, b, stride=stride, shift=shift(), up=up)

    def _linear(self, name, h, fout, zero=False):
        w = self._param(f"{name}.w", (h.shape[-1], fout), 0.0 if zero else None)
        return ad.matmul(h, w, self._param(f"{name}.b", (fout,), 0.0))

    def _norm(self, name, h):
        """GroupNorm then SiLU, one ``ad.group_norm`` node."""
        c = h.shape[3]
        return ad.group_norm(h, self._param(f"{name}.g", (c,), 1.0),
                             self._param(f"{name}.b", (c,), 0.0))

    def _res(self, name, x, temb, cout):
        h = self._conv(f"{name}.conv1", self._norm(f"{name}.gn1", x), cout,
                       shift=lambda: self._linear(f"{name}.time", temb, cout))
        h = self._conv(f"{name}.conv2", self._norm(f"{name}.gn2", h), cout)
        skip = x if x.shape[3] == cout else self._conv(f"{name}.skip", x, cout, k=1)
        return ad.add(h, skip)

    def _time_vec(self, t, n) -> Tensor:
        emb = Tensor(time_embedding(t, self.cfg.time_embed_dim, n))
        return ad.silu(self._linear("enc.time.fc", emb, self.cfg.time_embed_dim))

    def _encode(self, z, t, requires_grad: bool = False) -> Encoding:
        """One encoder pass from the (N, 1, S, S) batch ``z``, whose leaf
        requires grad if asked; raises ``ShapeMismatch`` for any other shape."""
        cfg = self.cfg
        side = cfg.image_side
        leaf = Tensor(z, requires_grad=requires_grad)
        if leaf.shape[1:] != (1, side, side):
            raise ShapeMismatch(
                f"input {leaf.shape} does not match config (N, 1, {side}, {side})")
        n = leaf.shape[0]
        h = ad.reshape(leaf, (n, side, side, 1))
        temb = self._time_vec(t, n)
        chans = cfg.stage_channels
        h = self._conv("enc.stem", h, chans[0])
        skips = []
        for i, ch in enumerate(chans):
            h = self._res(f"enc.s{i}r0", h, temb, ch)
            skips.append(h)
            if i < len(chans) - 1:
                h = self._conv(f"enc.down{i}", h, ch, stride=2)
        h = self._res("enc.mid", h, temb, chans[-1])
        return Encoding(leaf, h, skips, temb, t)

    def _decode(self, enc: Encoding) -> Tensor:
        chans = self.cfg.stage_channels
        h = enc.bottleneck
        for i in reversed(range(len(chans))):
            h = self._res(f"dec.s{i}", ad.concat(h, enc.skips[i]), enc.temb, chans[i])
            if i > 0:
                h = self._conv(f"dec.up{i}", h, chans[i - 1], up=2)
        h = self._norm("dec.outgn", h)
        return ad.reshape(self._conv("dec.out", h, 1, zero=True), enc.leaf.shape)

    def _head(self, bottleneck: Tensor) -> Tensor:
        h = ad.avg_pool2d(bottleneck) if bottleneck.shape[1] % 2 == 0 else bottleneck
        n, side, _, c = h.shape
        h = ad.reshape(h, (n, side * side * c))
        h = ad.leaky_relu(self._linear("cls.fc1", h, self.cfg.classifier_hidden))
        return self._linear("cls.fc2", h, self.cfg.num_classes, zero=True)

    # -- public API ((N, 1, S, S) numpy at the boundary) ----------------------

    def denoise(self, z, t) -> Tensor:
        """Predicted noise for ``z`` as a graph tensor of ``z``'s shape over
        the model's weights."""
        return self._decode(self._encode(z, t))

    def classify(self, z, t) -> Tensor:
        """Class logits; runs encoder and head only, never the decoder."""
        return self._head(self._encode(z, t).bottleneck)

    def _frozen(self) -> "JointModel":
        """The same weight arrays as graph constants (no copy): a graph built
        through this view differentiates its input only."""
        return JointModel(self.cfg, {k: Tensor(p.data) for k, p in self.params.items()})

    def encode(self, z, t) -> Encoding:
        """Run the encoder once on ``z`` from a requires-grad leaf."""
        return self._frozen()._encode(z, t, requires_grad=True)

    def _encoding(self, z, t) -> Encoding:
        if not isinstance(z, Encoding):
            return self.encode(z, t)
        if not np.array_equal(z.t, t):
            raise TimestepOutOfRange(f"encoding was made at t={z.t}, not t={t}")
        return z

    def predict_noise(self, z, t) -> np.ndarray:
        """Predicted noise as an (N, 1, S, S) array, under ``no_grad``. ``z``
        is a batch or an ``Encoding`` at ``t``, whose activations are decoded
        without running the encoder again."""
        with ad.no_grad():
            return self._decode(self._encoding(z, t)).data

    def class_probs(self, z: np.ndarray, t) -> np.ndarray:
        with ad.no_grad():
            return _sigmoid(self.classify(z, t).data)

    def class_score_grad(self, z, t, class_idx: int,
                         toward: bool = True) -> np.ndarray:
        """d/dz of sum_i log p(y_k | z_i) over the batch, as an (N, 1, S, S)
        array.

        ``toward`` uses log sigma(logit_k); otherwise log(1 - sigma(logit_k)).
        ``z`` is a batch or an ``Encoding`` at ``t``, whose graph the
        backward consumes. Backward runs through the head and the encoder to
        the input only; no parameter gets a ``.grad``. An encoder pass run
        under ``no_grad`` has no graph, and raises ``ConfigInvalid``.
        """
        if not is_count(class_idx) or not 0 <= class_idx < self.cfg.num_classes:
            raise ConfigInvalid(f"class {class_idx} outside [0, {self.cfg.num_classes})")
        if not isinstance(toward, (bool, np.bool_)):
            raise ConfigInvalid(f"toward must be a bool, got {toward!r}")
        enc = self._encoding(z, t)
        frozen = self._frozen()
        logits = frozen._head(enc.bottleneck)
        onehot = Tensor(np.eye(self.cfg.num_classes)[:, [class_idx]])
        picked = ad.matmul(logits, onehot)                     # (N, 1)
        n = picked.shape[0]
        target = np.ones((n, 1)) if toward else np.zeros((n, 1))
        # log sigma(x) = -softplus(-x) = -n * bce(x, 1); complement uses bce(x, 0)
        score = ad.mul(ad.bce_with_logits(picked, target), -float(n))
        ad.backward(score)
        if enc.leaf.grad is None:
            raise ConfigInvalid("class_score_grad: the encoding carries no graph, "
                                "because its encoder pass ran under no_grad")
        return enc.leaf.grad

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
