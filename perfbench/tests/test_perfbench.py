"""Tests of the benchmark harness on the tiny size: the output contract, the
correctness checks and the trace wiring.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jdl.autodiff as ad
import jdl.phantom as phantom
import jdl.sampling as sampling
import jdl.schedule as schedule
import jdl.training as training
from jdl.model import JointModel

import tracer
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = workloads.SIZES["tiny"]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def epsilon_ops(guide) -> int:
    """Primitive count of one guided_epsilon on the tiny model, by op_count."""
    model = workloads.perturbed_model(TINY.unet, 0)
    sched = schedule.make_linear_schedule(*workloads.SCHEDULE)
    z = np.zeros((2, 1, TINY.unet.image_side, TINY.unet.image_side))
    with ad.op_count() as counts:
        sampling.guided_epsilon(model, z, 10, guide, sched)
    return sum(counts.values())


GUIDED = sampling.GuidanceConfig(target_class=0, direction="toward", scale=1.0)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = last_json(bench("--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_accounts_for_the_step(name):
    result = last_json(bench("--workload", name, "--seed", "4", "--seconds", "1",
                             "--trace", "1"))
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    assert 0.9 <= m["trace.coverage_ratio"] <= 1.0
    per_step = sum(v for k, v in m.items() if k.startswith("autodiff.ops."))
    guided, unguided = epsilon_ops(GUIDED), epsilon_ops(sampling.GuidanceConfig())
    if name == "guided_ddim_b64":
        assert m["autodiff.ops_per_guided_step"] == per_step == guided
    elif name == "counterfactual_b8":
        assert m["autodiff.ops_per_guided_step"] == guided
        assert m["autodiff.ops_per_unguided_step"] == unguided
        assert per_step == guided + unguided
        assert m["phantom.readback_exact_ratio"] == 1.0
    else:
        assert m["training.adam_step_s"] > 0 and m["autodiff.bwd.mse_s"] > 0
        assert m["autodiff.checkpoint.bytes"] > 0 and m["autodiff.checkpoint.load_s"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layers.values():
        assert set(entry["moves"]) <= e2e and set(entry["on"]) <= set(NAMES)


def test_same_seed_gives_the_same_inputs(tmp_path):
    def inputs(seed):
        wl = workloads.CounterfactualB8(TINY, seed, tmp_path)
        wl.build()
        idx, zt = wl._noised("bench-cf-noise", 0)
        return idx, zt, wl.model.params["dec.out.w"].data
    a, b, c = inputs(5), inputs(5), inputs(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[1], c[1])


def test_perturbed_weights_give_nonzero_noise_and_gradient():
    model = workloads.perturbed_model(TINY.unet, 0)
    z = np.random.default_rng(0).standard_normal((2, 1, 32, 32))
    assert np.abs(model.predict_noise(z, 10)).max() > 0
    assert np.abs(model.class_score_grad(z, 10, 0)).max() > 0


def failures(name, tmp_path):
    _, out = workloads.run(name, "tiny", 0, 0.05, False, tmp_path)
    return out.failures


def test_scale0_mismatch_is_a_failure(monkeypatch, tmp_path):
    real = sampling.guided_epsilon
    monkeypatch.setattr(sampling, "guided_epsilon",
                        lambda *a, **k: np.nextafter(real(*a, **k), np.inf))
    found = failures("guided_ddim_b64", tmp_path)
    assert any("scale0_bitwise" in f for f in found)


def test_nonfinite_sample_is_a_failure(monkeypatch, tmp_path):
    real = JointModel.predict_noise
    monkeypatch.setattr(JointModel, "predict_noise",
                        lambda self, z, t: real(self, z, t) * np.nan)
    found = failures("guided_ddim_b64", tmp_path)
    assert any("non-finite" in f for f in found)


def test_nonfinite_loss_is_a_failure(monkeypatch, tmp_path):
    wl = workloads.TrainB64(TINY, 0, tmp_path)
    wl.build()
    real = training.diffusion_loss
    monkeypatch.setattr(training, "diffusion_loss",
                        lambda *a, **k: ad.mul(real(*a, **k), np.nan))
    out = workloads.Outcome()
    workloads.timed_phase(wl, 0.05, out, finish=False)
    assert out.failures and "TrainingDiverged" in out.failures[0]


def test_incomplete_checkpoint_restore_is_a_failure(monkeypatch, tmp_path):
    real = training.load_training_checkpoint
    monkeypatch.setattr(training, "load_training_checkpoint",
                        lambda path, model, opt=None: real(path, model))
    found = failures("train_b64", tmp_path)
    assert any("checkpoint_round_trip" in f for f in found)


def test_wrong_readback_is_a_failure(monkeypatch, tmp_path):
    real = phantom.recover_labels
    monkeypatch.setattr(phantom, "recover_labels", lambda img, spec: 1.0 - real(img, spec))
    found = failures("counterfactual_b8", tmp_path)
    assert any("readback_exact" in f for f in found)


def test_tracer_restores_every_patch():
    before = (ad.conv2d, ad.backward, training.train_joint, sampling.guided_epsilon,
              JointModel.denoise, training.Adam.step)
    with tracer.Tracer(), tracer.StepClock():
        assert ad.conv2d is not before[0]
    after = (ad.conv2d, ad.backward, training.train_joint, sampling.guided_epsilon,
             JointModel.denoise, training.Adam.step)
    assert after == before


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             [tracer.GUIDED_EPSILON, 5.0, 9.0, 0], ["autodiff.fwd.add", 5.0, 6.0, 3],
             [tracer.CLASS_SCORE_GRAD, 6.0, 8.0, 3], ["autodiff.fwd.mul", 6.0, 7.0, 5]]
    total, calls = tracer.self_times(spans)
    assert total["a"] == 3.0 and total["b"] == 2.0 and total["c"] == 1.0
    assert sum(total.values()) == 10.0 and calls["a"] == 1
    assert tracer.ops_per_epsilon(spans) == ([2], [])
