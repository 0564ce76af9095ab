"""Procedural chest-phantom generator with analytically known labels.

Each 32x32 grayscale sample is a torso ellipse containing two dark lung
fields and a bright central "heart" ellipse, over mild pixel noise. Three
multi-label disease analogs with tight ground-truth boxes:

  cardiomegaly  heart width ratio above 0.55 of torso width (healthy hearts
                are drawn well below, diseased well above, so a threshold
                rule on the rendered image recovers the flag exactly)
  nodule        bright disc of radius 2..3 px fully inside an upper lung
  effusion      bottom band, 4..8 rows, with a brightness ramp

The geometry ranges are chosen so the three lesions never interact with
each other's detection regions: nodules stay above row 12, hearts live in
rows ~14..25, the effusion scoring window is rows 26..29.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigInvalid, GeometryInfeasible, ShapeMismatch, is_count, is_real
from .rng import stream

SIDE = 32
CLASS_NAMES = ("cardiomegaly", "nodule", "effusion")
CLASS_PRIORS = (0.3, 0.3, 0.3)    # each flag is drawn independently

BACKGROUND = -0.85
TISSUE = -0.10
LUNG = -0.50
HEART = 0.30
NOISE_SIGMA = 0.05

_YY, _XX = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    a: float   # horizontal semi-axis
    b: float   # vertical semi-axis

    def mask(self, shrink: float = 0.0) -> np.ndarray:
        a = max(self.a - shrink, 1e-6)
        b = max(self.b - shrink, 1e-6)
        return ((_XX - self.cx) / a) ** 2 + ((_YY - self.cy) / b) ** 2 <= 1.0


@dataclass(frozen=True)
class PhantomSpec:
    seed: int
    torso: Ellipse
    lungs: tuple
    heart: Ellipse
    flags: tuple                       # (cardiomegaly, nodule, effusion)
    nodule: Optional[tuple] = None     # (cx, cy, r, delta)
    effusion: Optional[tuple] = None   # (height, delta)


@dataclass
class PhantomSample:
    image: np.ndarray                  # (32, 32) float in [-1, 1]
    labels: np.ndarray                 # (3,) in {0, 1}
    bboxes: list                       # [(class_idx, x0, y0, x1, y1)] inclusive
    spec: PhantomSpec


def make_spec(seed: int, flags) -> PhantomSpec:
    """Sample geometry for one phantom; flags decide lesion presence."""
    flags = tuple(int(f) for f in flags)
    rng = stream(seed, "phantom-geom")
    u = rng.uniform

    torso = Ellipse(cx=u(15.5, 16.5), cy=u(15.5, 16.5), a=u(11.5, 12.5), b=u(13.5, 14.5))
    lung_cy = torso.cy - 3.0 + u(-0.5, 0.5)
    lungs = tuple(
        Ellipse(cx=torso.cx + side * u(6.0, 6.5), cy=lung_cy, a=u(4.0, 4.6), b=u(7.5, 8.5))
        for side in (-1, +1))
    ratio = u(0.62, 0.72) if flags[0] else u(0.28, 0.40)
    heart = Ellipse(cx=torso.cx + u(-0.3, 0.3), cy=u(19.0, 20.0),
                    a=ratio * torso.a, b=u(3.8, 4.5))

    nodule = None
    if flags[1]:
        lung = lungs[int(rng.integers(0, 2))]
        # radii in [2.3, 2.95] keep the pixel disc covering >= 84% of its
        # tight box, so the box-mean contrast stays above 0.3 at delta 0.4
        for r in (u(2.3, 2.95), 2.3):  # retry at the smallest radius if cramped
            inner = lung.mask(shrink=r)
            feasible = inner & (_YY + r <= 12.0)
            ys, xs = np.nonzero(feasible)
            if ys.size:
                k = int(rng.integers(0, ys.size))
                nodule = (float(xs[k]), float(ys[k]), float(r), u(0.4, 0.6))
                break
        if nodule is None:
            raise GeometryInfeasible(f"seed {seed}: no room for a nodule")

    effusion = None
    if flags[2]:
        effusion = (int(rng.integers(4, 9)), u(0.3, 0.5))

    return PhantomSpec(seed=seed, torso=torso, lungs=lungs, heart=heart,
                       flags=flags, nodule=nodule, effusion=effusion)


def _tight_bbox(mask: np.ndarray) -> tuple:
    ys, xs = np.nonzero(mask)
    return int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())


def generate_phantom(spec: PhantomSpec) -> PhantomSample:
    """Deterministic render: same spec, bitwise identical sample."""
    base = np.full((SIDE, SIDE), BACKGROUND)
    base[spec.torso.mask()] = TISSUE
    for lung in spec.lungs:
        base[lung.mask()] = LUNG
    base[spec.heart.mask()] = HEART

    bboxes = []
    if spec.flags[0]:
        bboxes.append((0, *_tight_bbox(spec.heart.mask())))

    if spec.nodule is not None:
        cx, cy, r, delta = spec.nodule
        disc = (_XX - cx) ** 2 + (_YY - cy) ** 2 <= r ** 2
        base[disc] += delta
        bboxes.append((1, *_tight_bbox(disc)))

    if spec.effusion is not None:
        h, delta = spec.effusion
        band = spec.torso.mask() & (_YY >= SIDE - 2 - h) & (_YY <= SIDE - 3)
        rows = _YY[band]
        top, bottom = rows.min(), rows.max()
        ramp = 0.4 + 0.6 * (rows - top) / max(bottom - top, 1.0)
        base[band] += delta * ramp
        bboxes.append((2, *_tight_bbox(band)))

    noise = stream(spec.seed, "phantom-noise").normal(0.0, NOISE_SIGMA, (SIDE, SIDE))
    image = np.clip(base + noise, -1.0, 1.0)
    labels = np.asarray(spec.flags, dtype=np.float64)
    bboxes.sort(key=lambda bb: bb[0])
    return PhantomSample(image=image, labels=labels, bboxes=bboxes, spec=spec)


def _neighbours(a: np.ndarray) -> list:
    """The nine copies of ``a`` rolled by each (dy, dx) in {-1, 0, 1}^2,
    row by row; the 3x3 neighbourhood of every pixel, wrapping at the
    edges."""
    return [np.roll(np.roll(a, dy, axis=0), dx, axis=1)
            for dy in (-1, 0, 1) for dx in (-1, 0, 1)]


def _erode(mask: np.ndarray) -> np.ndarray:
    """3x3 binary erosion without scipy."""
    return np.logical_and.reduce(_neighbours(mask))


def recover_labels(image: np.ndarray, spec: PhantomSpec) -> np.ndarray:
    """Analytic threshold rules on the rendered image.

    Uses only flag-independent geometry (torso, lungs, heart center), never
    the lesion parameters, so it is a genuine read-back of the pixels. An
    ``image`` that is not ``SIDE`` x ``SIDE`` raises ``ShapeMismatch``, and
    one with a pixel that is not finite ``ConfigInvalid``.
    """
    if np.shape(image) != (SIDE, SIDE):
        raise ShapeMismatch(f"expected a {SIDE}x{SIDE} image, got shape {np.shape(image)}")
    if not np.isfinite(image).all():
        # every threshold reads NaN as absent and inf as present
        raise ConfigInvalid("recover_labels: the image has pixels that are not finite")
    # cardiomegaly: contiguous bright run around the heart center row
    r0 = int(round(spec.heart.cy))
    band = image[r0 - 1:r0 + 2, :]
    bright = (band > 0.10).sum(axis=0) >= 2
    c0 = int(round(spec.heart.cx))
    width = 0
    if bright[c0]:
        lo = c0
        while lo - 1 >= 0 and bright[lo - 1]:
            lo -= 1
        hi = c0
        while hi + 1 < SIDE and bright[hi + 1]:
            hi += 1
        width = hi - lo + 1
    cardio = width / (2.0 * spec.torso.a) > 0.50

    # nodule: any 3x3 block mean well above the lung base level, upper lungs
    box = sum(_neighbours(image)) / 9.0
    region = np.zeros((SIDE, SIDE), dtype=bool)
    for lung in spec.lungs:
        region |= _erode(lung.mask())
    region &= _YY <= 12.0
    nodule = region.any() and (box[region] - LUNG).max() > 0.20

    # effusion: mean brightness of the deep-bottom torso window
    window = _erode(spec.torso.mask()) & (_YY >= 26) & (_YY <= SIDE - 3)
    effusion = float(image[window].mean()) > TISSUE + 0.10

    return np.asarray([cardio, nodule, effusion], dtype=np.float64)


# ---------------------------------------------------------------------------
# dataset assembly


@dataclass
class PhantomDataset:
    images: np.ndarray        # (N, 1, 32, 32)
    labels: np.ndarray        # (N, 3)
    labeled_mask: np.ndarray  # (N,) bool
    bboxes: list              # per-sample bbox lists
    specs: list               # per-sample PhantomSpec, for recover_labels


def _draw_flags(rng: np.random.Generator) -> tuple:
    return tuple(int(rng.random() < p) for p in CLASS_PRIORS)


def build_dataset(n_train: int, n_test: int, label_fraction: float = 1.0, seed: int = 0):
    """iid multi-label phantoms, each flag set with its ``CLASS_PRIORS``
    probability; train and test use disjoint seed streams.

    The same arguments give bitwise-identical splits, specs included, so a
    dataset is recorded by its arguments, never by its images.
    """
    if not all(is_count(n) and n >= 1 for n in (n_train, n_test)):
        raise ConfigInvalid(f"dataset sizes must be integers >= 1, got {n_train!r}, {n_test!r}")
    if not (is_real(label_fraction) and 0.0 <= label_fraction <= 1.0):   # also false for NaN
        raise ConfigInvalid(f"label_fraction must be a real in [0, 1], got {label_fraction!r}")

    def make_split(tag: str, n: int):
        flag_rng = stream(seed, f"{tag}-flags")
        seed_rng = stream(seed, f"{tag}-seeds")
        samples = []
        for _ in range(n):
            sample_seed = int(seed_rng.integers(0, 2**63 - 1))
            samples.append(generate_phantom(make_spec(sample_seed, _draw_flags(flag_rng))))
        return samples

    train = make_split("train", n_train)
    test = make_split("test", n_test)

    n_labeled = int(round(label_fraction * n_train))
    order = stream(seed, "labeled-subset").permutation(n_train)
    labeled = np.zeros(n_train, dtype=bool)
    labeled[order[:n_labeled]] = True

    def pack(samples, labeled_mask) -> PhantomDataset:
        return PhantomDataset(
            images=np.stack([s.image for s in samples])[:, None, :, :],
            labels=np.stack([s.labels for s in samples]),
            labeled_mask=labeled_mask,
            bboxes=[s.bboxes for s in samples],
            specs=[s.spec for s in samples])

    return pack(train, labeled), pack(test, np.ones(n_test, dtype=bool))
