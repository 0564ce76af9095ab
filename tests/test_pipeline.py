"""End-to-end checks across modules: phantoms -> training -> sampling, and
results that must not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jdl
from jdl.model import JointModel, UNetConfig
from jdl.phantom import build_dataset
from jdl.rng import stream
from jdl.sampling import GuidanceConfig, SamplerConfig, ddim_sample
from jdl.schedule import make_linear_schedule
from jdl.training import TrainConfig, TrainData, train_joint


def test_phantoms_train_then_sample():
    train, _ = build_dataset(6, 1, label_fraction=0.5, seed=2)
    side = train.images.shape[-1]
    cfg = UNetConfig(base_channels=8, channel_multipliers=(1, 2), image_side=side,
                     time_embed_dim=8, classifier_hidden=16)
    model = JointModel.build(cfg, seed=0)
    sched = make_linear_schedule(6, 1e-3, 0.2)
    data = TrainData(z0=train.images, labels=train.labels,
                     labeled_mask=train.labeled_mask)
    summary = train_joint(model, data, TrainConfig(total_steps=3, class_start_step=0,
                                                   batch_diffusion=2,
                                                   batch_classification=2),
                          sched)
    assert all(np.isfinite(r.total_loss) for r in summary.reports)

    away = GuidanceConfig(target_class=1, direction="away", scale=5.0)
    for sampler in (SamplerConfig(kind="ddim", ddim_steps=3),
                    SamplerConfig(kind="ddpm")):
        out = ddim_sample(model, 2, away, sampler, sched, stream(0, sampler.kind))
        assert out.shape == (2, 1, side, side)
        assert np.isfinite(out).all()


# At n = 8, side 16 and 16 base channels the conv GEMMs are (2048 x 144) @
# (144 x 16) at full resolution and (512 x 288) @ (288 x 32) at half; OpenBLAS
# runs both on two threads when allowed (about 2 s of CPU per 1 s of wall time
# at 2 threads, measured on OpenBLAS 0.3.31), so the comparison below has work
# that is really split.
_DIGESTS = """
import hashlib, json
import numpy as np
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream
from jdl.sampling import GuidanceConfig, ddim_reverse_from, ddim_subsequence
from jdl.schedule import make_linear_schedule

cfg = UNetConfig(base_channels=16, channel_multipliers=(1, 2), image_side=16,
                 time_embed_dim=16, classifier_hidden=16)
model = JointModel.build(cfg, seed=4)
noise = stream(4, "perturb")
model.load_state({name: model.params[name].data
                  + 0.05 * noise.standard_normal(model.params[name].shape)
                  for name in sorted(model.params)})
z = stream(4, "z").standard_normal((8, 1, 16, 16))
sched = make_linear_schedule(10, 1e-3, 0.1)
guide = GuidanceConfig(target_class=1, direction="toward", scale=2.0)
rng = stream(4, "sample")
out = {
    "predict_noise": model.predict_noise(z, 7),
    "class_score_grad": model.class_score_grad(z, 7, 1),
    "ddim_reverse_from": ddim_reverse_from(model, rng.standard_normal((8, 1, 16, 16)),
                                           ddim_subsequence(10, 2), guide, sched, rng,
                                           eta=0.5),
}
print(json.dumps({k: [str(v.dtype), hashlib.sha256(v.tobytes()).hexdigest()]
                  for k, v in out.items()}))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_results_independent_of_blas_threads():
    src = str(Path(jdl.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.Popen([sys.executable, "-c", _DIGESTS], env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     text=True))
    digests = []
    for proc in runs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        digests.append(json.loads(out))
    assert digests[0] == digests[1]
