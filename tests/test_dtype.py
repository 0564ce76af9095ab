"""The graph computes in float32 end to end.

A single float64 array anywhere in a graph (a constant, a mask, a buffer
allocated with numpy's default dtype, a parameter assigned from float64)
silently promotes everything downstream of it, and the outputs stay finite
and close, so nothing but a dtype check sees it.
"""

import numpy as np

import jdl.autodiff.ops as ops
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream
from jdl.sampling import GuidanceConfig, ddim_reverse_from
from jdl.schedule import make_linear_schedule
from jdl.training import (TrainConfig, TrainData, load_training_checkpoint, make_optimizer,
                          save_training_checkpoint, train_joint)

CFG = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=8,
                 time_embed_dim=8, classifier_hidden=16)
SCHED = make_linear_schedule(50, 1e-3, 0.05)
# every primitive that a train step runs backward through
BACKWARD_KINDS = {"conv2d", "group_norm", "silu", "add", "matmul", "concat", "reshape",
                  "avg_pool2d", "mse", "bce_with_logits", "leaky_relu", "mul"}


def _record_dtypes(monkeypatch) -> list:
    """Patch ``record`` to log (kind, "out" or "vjp", dtype) for every
    primitive output and every gradient a backward rule returns."""
    log = []
    real = ops.record

    def watched(kind, vjp):
        def run(g):
            grad = vjp(g)
            log.append((kind, "vjp", grad.dtype))
            return grad
        return run

    def record(kind, out_data, *rules):
        log.append((kind, "out", out_data.dtype))
        return real(kind, out_data, *((p, watched(kind, vjp)) for p, vjp in rules))

    monkeypatch.setattr(ops, "record", record)
    return log


def test_train_step_and_guided_step_stay_float32(monkeypatch, tmp_path):
    log = _record_dtypes(monkeypatch)
    r = np.random.default_rng(0)
    data = TrainData(z0=r.standard_normal((12, 1, 8, 8)),
                     labels=(r.random((12, 3)) > 0.5).astype(float),
                     labeled_mask=np.arange(12) % 3 == 0)
    cfg = TrainConfig(total_steps=1, class_start_step=0, batch_diffusion=4,
                      batch_classification=3, seed=5)
    model = JointModel.build(CFG, seed=1)
    opt = make_optimizer(model, cfg)
    train_joint(model, data, cfg, SCHED, opt=opt)
    guide = GuidanceConfig(target_class=1, direction="away", scale=2.0)
    ddim_reverse_from(model, stream(1, "z").standard_normal((2, 1, 8, 8)), np.asarray([5]),
                      guide, SCHED, stream(1, "rng"))

    assert {(kind, what) for kind, what, dtype in log if dtype != np.float32} == set()
    # the check is not vacuous: every backward rule of the model ran
    assert {kind for kind, what, _ in log if what == "vjp"} == BACKWARD_KINDS
    for name, p in model.params.items():
        assert p.data.dtype == p.grad.dtype == np.float32, name
        assert opt.m[name].dtype == opt.v[name].dtype == np.float32, name

    # the file holds float64; a restore narrows it back, exactly
    path = tmp_path / "train.jdlw"
    save_training_checkpoint(path, model, opt, 1)
    fresh = JointModel.build(CFG, seed=2)
    fresh_opt = make_optimizer(fresh, cfg)
    load_training_checkpoint(path, fresh, fresh_opt)
    for name, p in model.params.items():
        for restored, saved in ((fresh.params[name].data, p.data),
                                (fresh_opt.m[name], opt.m[name]),
                                (fresh_opt.v[name], opt.v[name])):
            assert restored.dtype == np.float32, name
            assert np.array_equal(restored, saved), name
