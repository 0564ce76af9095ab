import numpy as np
import pytest

from jdl.errors import ConfigInvalid, IoError, ShapeMismatch
from jdl.pgm import write_pgm
from jdl.phantom import (CLASS_NAMES, CLASS_PRIORS, SIDE, build_dataset, generate_phantom,
                         make_spec, recover_labels)

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
    for i in range(len(train.images)):
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
        for i in range(len(split.images)):
            rec = recover_labels(split.images[i, 0], split.specs[i])
            assert np.array_equal(rec, split.labels[i]), f"sample {i}"


@pytest.mark.parametrize("shape", [(16, 16), (SIDE, SIDE + 1), (1, SIDE, SIDE)], ids=str)
def test_recover_labels_rejects_other_image_shapes(shape):
    # a 16x16 image used to raise a bare IndexError
    with pytest.raises(ShapeMismatch):
        recover_labels(np.zeros(shape), make_spec(1, (1, 1, 1)))


@pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
def test_recover_labels_rejects_non_finite_images(fill):
    # on a [1, 0, 1] phantom NaN used to read back [0, 0, 0], inf [1, 1, 1]
    with pytest.raises(ConfigInvalid):
        recover_labels(np.full((SIDE, SIDE), fill), make_spec(1, (1, 0, 1)))


def test_prevalence_tracks_priors():
    train, _ = build_dataset(4000, 1, seed=1)
    assert np.all(np.abs(train.labels.mean(axis=0) - CLASS_PRIORS) < 0.02)


def test_label_fraction_rounding(dataset):
    train, test = dataset
    assert train.labeled_mask.sum() == round(0.1 * len(train.images))
    assert test.labeled_mask.all()


def test_label_fraction_one_labels_everything():
    train, _ = build_dataset(50, 5, label_fraction=1.0, seed=2)
    assert train.labeled_mask.all()


def test_train_test_disjoint(dataset):
    train, test = dataset
    train_bytes = {train.images[i].tobytes() for i in range(len(train.images))}
    for i in range(len(test.images)):
        assert test.images[i].tobytes() not in train_bytes


def test_rejects_bad_sizes():
    # each fractional, string or boolean size used to raise a bare TypeError
    for sizes in ((2.5, 1), (2, 1.5), ("3", 1), (True, True)):
        with pytest.raises(ConfigInvalid):
            build_dataset(*sizes)


# True used to label every sample, and "0.5" and None raised a bare TypeError
@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan"), True, "0.5", None])
def test_rejects_label_fraction_outside_unit_interval(fraction):
    with pytest.raises(ConfigInvalid):
        build_dataset(20, 1, label_fraction=fraction)


def test_dataset_bytes_reproducible():
    a, _ = build_dataset(30, 5, seed=9)
    b, _ = build_dataset(30, 5, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.labeled_mask, b.labeled_mask)
    assert a.bboxes == b.bboxes
    # the specs come back too, so a regenerated dataset drives recover_labels
    assert a.specs == b.specs


def test_pgm_writer_bytes(tmp_path):
    path = tmp_path / "x.pgm"
    # -1 -> 0, 0 -> 127.5 rounds to 128, 1 -> 255; outside [-1, 1] clips
    write_pgm(path, np.array([[-1.0, 0.0, 1.0], [-2.0, 2.0, 0.5]]))
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 0, 255, 191])
    for bad in (np.zeros(4), np.zeros((1, 2, 3))):
        with pytest.raises(IoError):
            write_pgm(tmp_path / "bad.pgm", bad)
    assert not (tmp_path / "bad.pgm").exists()


@pytest.mark.parametrize("bad", [np.array([[0.0, np.nan]]), np.array([[np.inf, 0.0]]),
                                 np.zeros((0, 3))], ids=["nan", "inf", "empty"])
def test_pgm_writer_rejects_an_image_it_cannot_write(tmp_path, bad):
    # NaN used to be written as byte 0 and inf as 255, with only a warning
    with pytest.raises(IoError):
        write_pgm(tmp_path / "bad.pgm", bad)
    assert not (tmp_path / "bad.pgm").exists()


def test_class_names_fixed():
    assert CLASS_NAMES == ("cardiomegaly", "nodule", "effusion")
