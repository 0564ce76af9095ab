import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jdl.errors import InvalidPrior, IoError
from jdl.pgm import read_pgm, write_pgm
from jdl.phantom import (CLASS_NAMES, SIDE, build_dataset, generate_phantom,
                         load_dataset, make_spec, recover_labels, save_dataset)

YY, XX = np.mgrid[0:SIDE, 0:SIDE]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(600, 150, label_fraction=0.1, seed=5)


def lesion_mask(spec, k):
    if k == 0:
        return spec.heart.mask()
    if k == 1:
        cx, cy, r, _ = spec.nodule
        return (XX - cx) ** 2 + (YY - cy) ** 2 <= r * r
    h, _ = spec.effusion
    return spec.torso.mask() & (YY >= SIDE - 2 - h) & (YY <= SIDE - 3)


def test_healthy_sample_has_no_bboxes():
    s = generate_phantom(make_spec(42, (0, 0, 0)))
    assert s.bboxes == []
    assert np.array_equal(s.labels, [0, 0, 0])


def test_generation_is_deterministic():
    a = generate_phantom(make_spec(7, (1, 0, 1)))
    b = generate_phantom(make_spec(7, (1, 0, 1)))
    assert np.array_equal(a.image, b.image)
    assert a.bboxes == b.bboxes


def test_image_range_and_shape():
    s = generate_phantom(make_spec(3, (1, 1, 1)))
    assert s.image.shape == (SIDE, SIDE)
    assert s.image.min() >= -1.0 and s.image.max() <= 1.0


def test_every_flag_has_exactly_one_bbox():
    for seed in range(40):
        flags = (seed % 2, (seed // 2) % 2, (seed // 4) % 2)
        s = generate_phantom(make_spec(seed, flags))
        per_class = [sum(1 for bb in s.bboxes if bb[0] == k) for k in range(3)]
        assert per_class == list(flags)


def test_bboxes_strictly_inside_image():
    for seed in range(60):
        s = generate_phantom(make_spec(seed, (1, 1, 1)))
        for _, x0, y0, x1, y1 in s.bboxes:
            assert 0 <= x0 <= x1 < SIDE
            assert 0 <= y0 <= y1 < SIDE


def test_bbox_contains_lesion_and_is_tight():
    for seed in range(60):
        s = generate_phantom(make_spec(seed, (1, 1, 1)))
        for k, x0, y0, x1, y1 in s.bboxes:
            m = lesion_mask(s.spec, k)
            box = np.zeros_like(m)
            box[y0:y1 + 1, x0:x1 + 1] = True
            assert (m & ~box).sum() == 0, "lesion pixels must lie inside the box"
            # shrinking any side by one pixel drops at least one lesion pixel
            assert m[y0, :].any() and m[y1, :].any()
            assert m[:, x0].any() and m[:, x1].any()


def test_nodule_bbox_contrast(dataset):
    train, _ = dataset
    checked = 0
    for i in range(train.n):
        spec = train.specs[i]
        for k, x0, y0, x1, y1 in train.bboxes[i]:
            if k != 1:
                continue
            img = train.images[i, 0]
            inside = img[y0:y1 + 1, x0:x1 + 1].mean()
            lung = np.zeros((SIDE, SIDE), dtype=bool)
            for l in spec.lungs:
                lung |= l.mask()
            lung &= ~spec.heart.mask()
            lung &= YY < 22  # clear of any effusion band
            lung[y0:y1 + 1, x0:x1 + 1] = False
            assert inside - img[lung].mean() >= 0.3
            checked += 1
    assert checked > 50


def test_label_faithfulness_is_exact(dataset):
    train, test = dataset
    for split in (train, test):
        for i in range(split.n):
            rec = recover_labels(split.images[i, 0], split.specs[i])
            assert np.array_equal(rec, split.labels[i]), f"sample {i}"


def test_prevalence_tracks_priors():
    train, _ = build_dataset(4000, 1, class_priors=(0.3, 0.3, 0.3), seed=1)
    assert np.all(np.abs(train.labels.mean(axis=0) - 0.3) < 0.02)


def test_label_fraction_rounding(dataset):
    train, test = dataset
    assert train.labeled_mask.sum() == round(0.1 * train.n)
    assert test.labeled_mask.all()


def test_label_fraction_one_labels_everything():
    train, _ = build_dataset(50, 5, label_fraction=1.0, seed=2)
    assert train.labeled_mask.all()


def test_train_test_disjoint(dataset):
    train, test = dataset
    train_bytes = {train.images[i].tobytes() for i in range(train.n)}
    for i in range(test.n):
        assert test.images[i].tobytes() not in train_bytes


def test_rejects_bad_priors():
    with pytest.raises(InvalidPrior):
        build_dataset(10, 10, class_priors=(0.3, 1.2, 0.3))


@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
def test_rejects_label_fraction_outside_unit_interval(fraction):
    with pytest.raises(InvalidPrior):
        build_dataset(20, 1, label_fraction=fraction)


def test_dataset_bytes_reproducible():
    a, _ = build_dataset(30, 5, seed=9)
    b, _ = build_dataset(30, 5, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labeled_mask, b.labeled_mask)
    assert a.bboxes == b.bboxes


def test_save_load_roundtrip(tmp_path, dataset):
    train, _ = dataset
    small = type(train)(images=train.images[:8], labels=train.labels[:8],
                        labeled_mask=train.labeled_mask[:8], bboxes=train.bboxes[:8])
    save_dataset(tmp_path, small)
    back = load_dataset(tmp_path)
    assert back.n == 8
    assert np.array_equal(back.labels, small.labels)
    assert np.array_equal(back.labeled_mask, small.labeled_mask)
    assert back.bboxes == small.bboxes
    # images survive up to 8-bit quantization
    assert np.abs(back.images - small.images).max() <= 1.0 / 127.5 + 1e-12


def test_pgm_roundtrip(tmp_path):
    img = np.linspace(-1, 1, SIDE * SIDE).reshape(SIDE, SIDE)
    write_pgm(tmp_path / "x.pgm", img)
    back = read_pgm(tmp_path / "x.pgm")
    assert np.abs(back - img).max() <= 1.0 / 255.0


def _pgm_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        write_pgm(path, np.linspace(-1, 1, 6).reshape(2, 3))
        return path.read_bytes()


GOOD_PGM = _pgm_bytes()        # b"P5\n3 2\n255\n" and a 6-byte raster
WIDTH_BYTE = 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(GOOD_PGM) - 1), st.integers(1, 255)),
                max_size=3))
@example([])
@example([(WIDTH_BYTE, 0x40)])   # width "3" becomes "s"
def test_pgm_reader_raises_only_io_error(flips):
    blob = bytearray(GOOD_PGM)
    for pos, mask in flips:
        blob[pos] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        for cut in range(len(blob) + 1):
            path.write_bytes(bytes(blob[:cut]))
            try:
                read_pgm(path)
            except IoError:
                pass


def test_load_missing_manifest(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path)


def test_class_names_fixed():
    assert CLASS_NAMES == ("cardiomegaly", "nodule", "effusion")
