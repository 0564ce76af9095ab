"""Tests of the drift harness: it finds no drift where there is none, finds
a wrong backward rule in the outputs that run a backward and nowhere else,
a wrong weight-gradient input or a reordered time-shift sum in the
training outputs alone, and a wrong upsampling in the outputs that run the
decoder alone.

Run from the repository root: ``python -m pytest tools/tests -q``.
"""

import shutil
import subprocess
import sys

import numpy as np

import drift

GROUPS = ["build", "predict_noise", "class_probs", "class_score_grad", "guided_epsilon",
          "guided_sample", "ddim_sample", "train", "checkpoint", "train_class",
          "train_per_image"]
# the groups whose weights train, and so run a conv's weight gradient
WEIGHT_GRADIENT = {"train", "checkpoint", "train_class", "train_per_image"}
BACKWARD = {"class_score_grad", "guided_epsilon", "guided_sample", *WEIGHT_GRADIENT}
# the groups that run the decoder, and so its upsampling convs
DECODER = {"predict_noise", "guided_epsilon", "guided_sample", "ddim_sample", "train",
           "checkpoint", "train_per_image"}


def _assert_head_against_itself_is_bitwise_equal(*args):
    proc = subprocess.run([sys.executable, "tools/drift.py", "--against", "HEAD", *args],
                          cwd=drift.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows] == [*GROUPS, "all"]
    for row in rows:
        equal, total = map(int, row[1].split("/"))
        assert equal == total > 0, row
    return header


def test_head_against_itself_is_bitwise_equal():
    assert "float32" in _assert_head_against_itself_is_bitwise_equal()


def test_float64_head_against_itself_is_bitwise_equal_in_float64():
    assert "float64" in _assert_head_against_itself_is_bitwise_equal("--dtype", "float64")
    out = drift.run_tree(drift.ROOT / "src", "float64")
    weights = [a for name, a in out.items() if name.startswith("train/") and "/weights/" in name]
    assert weights and all(a.dtype == np.float64 for a in weights)


def _assert_drifts_exactly(tmp_path, function: str, line: str, mutant: str,
                           groups: set) -> None:
    """Copy ``src/``, replace the one ``line`` of the ``ops.py`` function
    ``function`` with ``mutant``, and check that the copy drifts from
    ``src/`` in ``groups`` and nowhere else."""
    src = tmp_path / "src"
    shutil.copytree(drift.ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    ops = src / "jdl" / "autodiff" / "ops.py"
    text = ops.read_text()
    start = text.index(f"\ndef {function}(")
    end = text.find("\ndef ", start + 1)
    end = len(text) if end < 0 else end
    rule = text[start:end]
    assert rule.count(line) == 1
    ops.write_text(text[:start] + rule.replace(line, mutant) + text[end:])

    rows = drift.compare(drift.run_tree(src), drift.run_tree(drift.ROOT / "src"))
    assert [row[0] for row in rows] == GROUPS
    for group, equal, total, d_abs, d_rel in rows:
        assert total > 0, group
        if group in groups:
            assert equal < total and d_abs > 0 and d_rel > 0, group
        else:
            assert equal == total and d_abs == d_rel == 0, group


def test_a_wrong_silu_rule_drifts_only_where_a_backward_runs(tmp_path):
    # the SiLU derivative inside group_norm's rules, which every backward
    # through the UNet runs; the time MLP's lone silu keeps no rule under
    # guidance
    line = "g3 = g.reshape(n, h * w, c)\n"
    _assert_drifts_exactly(tmp_path, "group_norm", line, line.replace("g.", "g[::-1]."),
                           BACKWARD)


def test_a_wrong_rebuild_drifts_only_where_weights_train(tmp_path):
    # group_norm's rebuilt output is read by the weight gradient of the conv
    # after it alone: a rebuild that hands that conv y, not y * sigmoid(y),
    # moves every trained weight, and no guided output, whose weights are
    # frozen
    line = "return rebuilt[0].reshape(n, h, w, c)\n"
    _assert_drifts_exactly(tmp_path, "group_norm", line,
                           "return (xhat * gd + bd).reshape(n, h, w, c)\n", WEIGHT_GRADIENT)


def test_a_reordered_shift_sum_drifts_only_where_weights_train(tmp_path):
    # the time shift's gradient sums over H, then W; over W first, it rounds
    # otherwise. Only trained weights keep the shift's rule: under guidance
    # the time projection is frozen
    line = "rules.append((shift, lambda g: g.sum(axis=1).sum(axis=1)))\n"
    _assert_drifts_exactly(tmp_path, "conv2d", line, line.replace("axis=1).sum", "axis=2).sum"),
                           WEIGHT_GRADIENT)


def test_a_wrong_upsampling_fill_drifts_only_where_the_decoder_runs(tmp_path):
    # the dec.up convs write each input pixel as a 2 x 2 patch into their
    # canvas; filling the first patch row alone moves every output that runs
    # the decoder, and neither the encoder, the head nor a classification-only
    # step
    line = "for di in range(fill):\n"
    _assert_drifts_exactly(tmp_path, "_each_window_block", line,
                           line.replace("range(fill)", "range(1)"), DECODER)
