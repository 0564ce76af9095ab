import numpy as np
import pytest

from jdl.errors import ConfigInvalid
from jdl.model import JointModel, UNetConfig
from jdl.phantom import build_dataset
from jdl.rng import stream


def _draws(*key):
    return stream(*key).bit_generator.random_raw(4)


def test_same_key_gives_the_same_draws():
    assert np.array_equal(_draws(7, "noise", 2), _draws(7, "noise", 2))
    assert np.array_equal(_draws(np.int64(7), "noise", np.uint8(2)), _draws(7, "noise", 2))


@pytest.mark.parametrize("other", [(8, "noise", 2), (7, "noisy", 2), (7, "noise", 3)],
                         ids=["seed", "tag", "index"])
def test_each_part_of_the_key_changes_the_draws(other):
    assert not np.array_equal(_draws(7, "noise", 2), _draws(*other))


@pytest.mark.parametrize("seed", [-1, np.int64(-1), 2**64, 2**64 + 5], ids=repr)
def test_seed_outside_64_bits_raises(seed):
    # each used to be taken modulo 2**64: -1 drew what 2**64 - 1 draws, and
    # 2**64 what 0 draws
    with pytest.raises(ConfigInvalid):
        stream(seed, "noise")


def test_largest_seed_is_its_own_stream():
    assert not np.array_equal(_draws(2**64 - 1, "noise"), _draws(0, "noise"))


def test_golden_draws():
    # pins the key (seed, crc32 of the tag, index) and the generator
    assert stream(0, "x").bit_generator.random_raw(2).tolist() == [
        14792098528923663748, 15590170416126552175]


@pytest.mark.parametrize("seed,index", [
    (1.5, 0), (3.0, 0), (np.float64(1.0), 0), ("1", 0), (0, 2.0), (0, 0.5),
    (True, 0), (0, True),
], ids=repr)
def test_non_integer_seed_or_index_raises(seed, index):
    # each used to be truncated, parsed by int() or taken as 1 without a word
    with pytest.raises(ConfigInvalid):
        stream(seed, "x", index)


@pytest.mark.parametrize("tag,index", [
    ("x", -1), ("x", np.int64(-3)), (5, 0), (b"x", 0), (None, 0),
], ids=repr)
def test_negative_index_or_non_str_tag_raises(tag, index):
    # a negative index used to raise numpy's bare ValueError, a tag that is
    # not a str a bare AttributeError
    with pytest.raises(ConfigInvalid):
        stream(0, tag, index)


def test_fractional_seed_raises_where_it_enters():
    cfg = UNetConfig(base_channels=8, channel_multipliers=(1,), image_side=8,
                     time_embed_dim=8, classifier_hidden=16)
    # these used to equal seed 1 and seed 3
    with pytest.raises(ConfigInvalid):
        JointModel.build(cfg, seed=1.5)
    with pytest.raises(ConfigInvalid):
        build_dataset(4, 1, seed=3.7)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=repr)
def test_seed_outside_64_bits_raises_where_it_enters(seed):
    # these used to equal seed 2**64 - 1 and seed 0
    cfg = UNetConfig(base_channels=8, channel_multipliers=(1,), image_side=8,
                     time_embed_dim=8, classifier_hidden=16)
    with pytest.raises(ConfigInvalid):
        JointModel.build(cfg, seed=seed)
    with pytest.raises(ConfigInvalid):
        build_dataset(4, 1, seed=seed)
