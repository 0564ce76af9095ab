"""Joint parametrization: UNet denoiser whose encoder features feed a
classifier head.

The encoder (nu) runs the down path, the middle block and the shared time
MLP; the decoder (psi) runs the up path and the output head; the classifier
(omega) is two fully connected layers over the pooled bottleneck features.
Encoder weights are stored once and referenced by both tasks, so gradients
from either loss land in the same arrays.

The architecture is fixed; ``UNetConfig`` sets only sizes. Each stage has
one residual block on the way down (``enc.s{i}r0``) and one on the way up
(``dec.s{i}``). Every GroupNorm uses min(4, C) groups and eps 1e-5, and the
classifier's hidden layer is a LeakyReLU of slope 0.2. The classifier reads
the bottleneck average-pooled by 2, with the kernel then doubled until the
flattened features number at most ``FEATURE_CAP`` (or the side runs out).

The graph is NHWC only, like every spatial primitive in ``autodiff``. NCHW
appears only at ``JointModel``'s public methods: inputs are turned
channel-last once on entry (``_as_nhwc_leaf``), and the arrays that
``predict_noise`` and ``class_score_grad`` hand back are turned back on
exit. ``denoise`` and ``classify`` return the channel-last graph tensors
that the training losses differentiate.

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
from .errors import BadClassIndex, ConfigInvalid, OddDim, ShapeMismatch
from .rng import stream

FEATURE_CAP = 10_000  # most pooled bottleneck features the classifier reads


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
            raise OddDim("time_embed_dim must be even")

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


def _embed_batch(t, dim: int, n: int) -> np.ndarray:
    t = np.broadcast_to(np.asarray(t), (n,))
    half = dim // 2
    freqs = 10_000.0 ** (-2.0 * np.arange(half) / dim)
    ang = t[:, None].astype(np.float64) * freqs[None, :]
    out = np.empty((n, dim))
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out


def time_embedding(t: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding as interleaved (sin, cos) pairs."""
    if dim % 2:
        raise OddDim(f"embedding dim must be even, got {dim}")
    return _embed_batch(t, dim, 1)[0]


def feature_pool_kernel(channels: int, side: int) -> int:
    """Average-pool kernel used on the bottleneck before the classifier.

    Pools once by 2 whenever the spatial side allows it, then keeps
    doubling while the flattened size still exceeds ``FEATURE_CAP``.
    """
    k = 2 if side % 2 == 0 and side > 1 else 1
    while channels * (side // k) ** 2 > FEATURE_CAP and side % (2 * k) == 0:
        k *= 2
    return k


def _as_nhwc_leaf(z, requires_grad: bool = False) -> Tensor:
    """Turn an NCHW numpy batch into an NHWC leaf."""
    z = np.asarray(z, dtype=np.float64)
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

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, cfg: UNetConfig, seed: int = 0) -> "JointModel":
        rng = stream(seed, "model-init")
        p: dict[str, Tensor] = {}

        def conv(name, co, ci, k, zero=False):
            std = np.sqrt(2.0 / (ci * k * k))
            w = np.zeros((co, ci, k, k)) if zero else std * rng.standard_normal((co, ci, k, k))
            p[f"{name}.w"] = Tensor(w, requires_grad=True)
            p[f"{name}.b"] = Tensor(np.zeros(co), requires_grad=True)

        def linear(name, fin, fout, zero=False):
            std = np.sqrt(2.0 / fin)
            w = np.zeros((fin, fout)) if zero else std * rng.standard_normal((fin, fout))
            p[f"{name}.w"] = Tensor(w, requires_grad=True)
            p[f"{name}.b"] = Tensor(np.zeros(fout), requires_grad=True)

        def norm(name, c):
            p[f"{name}.g"] = Tensor(np.ones(c), requires_grad=True)
            p[f"{name}.b"] = Tensor(np.zeros(c), requires_grad=True)

        def res(name, cin, cout):
            norm(f"{name}.gn1", cin)
            conv(f"{name}.conv1", cout, cin, 3)
            linear(f"{name}.time", cfg.time_embed_dim, cout)
            norm(f"{name}.gn2", cout)
            conv(f"{name}.conv2", cout, cout, 3)
            if cin != cout:
                conv(f"{name}.skip", cout, cin, 1)

        chans = cfg.stage_channels
        linear("enc.time.fc", cfg.time_embed_dim, cfg.time_embed_dim)
        conv("enc.stem", chans[0], cfg.input_channels, 3)
        cur = chans[0]
        for i, ch in enumerate(chans):
            res(f"enc.s{i}r0", cur, ch)
            cur = ch
            if i < len(chans) - 1:
                conv(f"enc.down{i}", cur, cur, 3)
        res("enc.mid", cur, cur)

        for i in reversed(range(len(chans))):
            res(f"dec.s{i}", cur + chans[i], chans[i])
            cur = chans[i]
            if i > 0:
                conv(f"dec.up{i}", chans[i - 1], cur, 3)
                cur = chans[i - 1]
        norm("dec.outgn", cur)
        conv("dec.out", cfg.input_channels, cur, 3, zero=True)

        side = cfg.image_side // 2 ** (len(chans) - 1)
        k = feature_pool_kernel(chans[-1], side)
        feat_dim = chans[-1] * (side // k) ** 2
        linear("cls.fc1", feat_dim, cfg.classifier_hidden)
        linear("cls.fc2", cfg.classifier_hidden, cfg.num_classes, zero=True)
        return cls(cfg, p)

    # -- parameter groups ----------------------------------------------------

    def encoder_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith("enc.")}

    def decoder_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith("dec.")}

    def classifier_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith("cls.")}

    @property
    def feature_dim(self) -> int:
        return self.params["cls.fc1.w"].shape[0]

    # -- forward pieces (channel-last throughout) ----------------------------

    def _conv(self, name, h, stride=1, padding=1):
        h = ad.conv2d(h, self.params[f"{name}.w"], stride=stride,
                      padding=padding)
        return ad.add(h, self.params[f"{name}.b"])

    def _linear(self, name, h):
        return ad.add(ad.matmul(h, self.params[f"{name}.w"]),
                      self.params[f"{name}.b"])

    def _res(self, name, x, temb, cin, cout):
        h = ad.group_norm(x, self.params[f"{name}.gn1.g"],
                          self.params[f"{name}.gn1.b"])
        h = self._conv(f"{name}.conv1", ad.silu(h))
        tproj = self._linear(f"{name}.time", temb)
        n = tproj.shape[0]
        h = ad.add(h, ad.reshape(tproj, (n, 1, 1, cout)))
        h = ad.group_norm(h, self.params[f"{name}.gn2.g"],
                          self.params[f"{name}.gn2.b"])
        h = self._conv(f"{name}.conv2", ad.silu(h))
        skip = x if cin == cout else self._conv(f"{name}.skip", x, padding=0)
        return ad.add(h, skip)

    def _time_vec(self, t, n) -> Tensor:
        emb = Tensor(_embed_batch(t, self.cfg.time_embed_dim, n))
        return ad.silu(self._linear("enc.time.fc", emb))

    def _encode(self, z: Tensor, t):
        cfg = self.cfg
        n, c = z.shape[0], z.shape[3]
        if c != cfg.input_channels or z.shape[1] != cfg.image_side:
            raise ShapeMismatch(
                f"input {z.shape} does not match config "
                f"({cfg.input_channels}, {cfg.image_side}, {cfg.image_side})")
        temb = self._time_vec(t, n)
        chans = cfg.stage_channels
        h = self._conv("enc.stem", z)
        cur = chans[0]
        skips = []
        for i, ch in enumerate(chans):
            h = self._res(f"enc.s{i}r0", h, temb, cur, ch)
            cur = ch
            skips.append(h)
            if i < len(chans) - 1:
                h = self._conv(f"enc.down{i}", h, stride=2)
        h = self._res("enc.mid", h, temb, cur, cur)
        return h, skips, temb

    def _pool_features(self, bottleneck: Tensor) -> Tensor:
        n, side, c = bottleneck.shape[0], bottleneck.shape[1], bottleneck.shape[3]
        k = feature_pool_kernel(c, side)
        h = ad.avg_pool2d(bottleneck, k) if k > 1 else bottleneck
        return ad.reshape(h, (n, c * (side // k) ** 2))

    def _decode(self, bottleneck: Tensor, skips, temb) -> Tensor:
        cfg = self.cfg
        chans = cfg.stage_channels
        h = bottleneck
        cur = chans[-1]
        for i in reversed(range(len(chans))):
            h = self._res(f"dec.s{i}", ad.concat([h, skips[i]]),
                          temb, cur + chans[i], chans[i])
            cur = chans[i]
            if i > 0:
                h = ad.upsample_nearest(h, 2)
                h = self._conv(f"dec.up{i}", h)
                cur = chans[i - 1]
        h = ad.group_norm(h, self.params["dec.outgn.g"],
                          self.params["dec.outgn.b"])
        return self._conv("dec.out", ad.silu(h))

    def _head(self, features: Tensor) -> Tensor:
        h = ad.leaky_relu(self._linear("cls.fc1", features))
        return self._linear("cls.fc2", h)

    # -- public API (NCHW numpy at the boundary) ------------------------------

    def denoise(self, z, t) -> Tensor:
        """Predicted noise for NCHW ``z`` as a channel-last (N, H, W, C)
        graph tensor over the model's weights."""
        return self._decode(*self._encode(_as_nhwc_leaf(z), t))

    def classify(self, z, t) -> Tensor:
        """Class logits; runs encoder and head only, never the decoder."""
        leaf = _as_nhwc_leaf(z)
        bottleneck, _, _ = self._encode(leaf, t)
        return self._head(self._pool_features(bottleneck))

    def _frozen(self) -> "JointModel":
        """The same weight arrays as graph constants (no copy): a graph built
        through this view differentiates its input only."""
        return JointModel(self.cfg, {k: p.detach() for k, p in self.params.items()})

    def encode(self, z, t) -> Encoding:
        """Run the encoder once on NCHW ``z`` from a requires-grad leaf."""
        leaf = _as_nhwc_leaf(z, requires_grad=True)
        bottleneck, skips, temb = self._frozen()._encode(leaf, t)
        return Encoding(leaf, bottleneck, skips, temb, t)

    def _encoding(self, z, t) -> Encoding:
        if not isinstance(z, Encoding):
            return self.encode(z, t)
        if not np.array_equal(z.t, t):
            raise ValueError(f"encoding was made at t={z.t}, not t={t}")
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
        k = int(class_idx)
        if not 0 <= k < self.cfg.num_classes:
            raise BadClassIndex(f"class {k} outside [0, {self.cfg.num_classes})")
        enc = self._encoding(z, t)
        frozen = self._frozen()
        logits = frozen._head(frozen._pool_features(enc.bottleneck))
        onehot = Tensor(np.eye(self.cfg.num_classes)[:, [k]])
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

    def save(self, path) -> None:
        ad.save_weights(path, self.state_arrays())

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter by its entry in ``arrays``; raises
        ``CheckpointMismatch``, before changing anything, unless each one
        is there at its shape."""
        from .errors import CheckpointMismatch
        missing = set(self.params) - set(arrays)
        if missing:
            raise CheckpointMismatch(f"checkpoint missing {sorted(missing)[:3]}...")
        for k, v in self.params.items():
            if arrays[k].shape != v.data.shape:
                raise CheckpointMismatch(
                    f"{k}: checkpoint shape {arrays[k].shape} != model {v.data.shape}")
        for k, v in self.params.items():
            v.data = np.array(arrays[k], dtype=np.float64)

    def load(self, path) -> None:
        self.load_state(ad.load_weights(path))
