"""Which outputs of ``jdl`` a change moves, and by how much.

    python tools/drift.py --against REV [--dtype float64]

extracts ``REV``'s ``src/`` with ``git archive`` and runs one fixed set of
outputs on that tree and on the working tree's ``src/``, each in its own
subprocess with ``OPENBLAS_NUM_THREADS=1``, so that no sum depends on the
BLAS thread count. ``--dtype float64`` sets ``jdl.autodiff.tensor.DTYPE``
to float64 in both subprocesses, as ``tests/conftest.py`` does, so a change
can report its drift in float64 as well as in float32, the default. For
each group of outputs it prints how many are bitwise equal (same dtype,
shape and bytes) and the largest absolute and relative drift, where an
output's relative drift is its largest absolute difference over its largest
magnitude. It exits 1 if any output differs.

The set, on the default config (base 32, multipliers (1, 2, 4), side 32)
and on a base-8 side-16 one, takes a few seconds per tree:

- ``build``: every initial weight;
- on a perturbed model, for a batch of 4 (the default model's first stage
  runs its forward convs in blocks of 3 images and 1): ``predict_noise`` and
  ``class_probs`` at t = 1, 17 and per item, ``class_score_grad`` at t = 17
  for every class in both directions, guided ε at t = 1, 17 and 300, and a
  guided ``ddim_reverse_from`` over 3 steps at η = 0.5;
- on the same model, for a batch of 20, which ``guided_epsilon`` runs as 2
  blocks of ``sampling.EPSILON_BLOCK`` = 8 images and a remainder of 4:
  guided ε at scale 0 and at scale 2, and a guided ``ddim_reverse_from`` at
  η = 0.5, in the ``guided_epsilon`` and ``guided_sample`` groups;
- ``ddim_sample``: an unguided ``ddim_sample`` of 4 images from noise over
  3 DDIM steps, on the same model;
- ``train``: the losses of 2 joint steps, then every weight and Adam moment;
  a batch of 8 splits the default model's weight gradients into blocks of 3,
  3 and 2 images;
- ``train_class``: the same for 2 classification-only steps
  (``diffusion_enabled=False``) on a batch of 8, whose backward runs over
  the encoder and the head alone;
- ``train_per_image``: the ``train`` run again with ``ops.WINDOW_BLOCK``
  at ``1 << 17``, as ``tests/test_pipeline.py`` sets it. That runs most of
  the default model's conv products one image per block, and most of the
  small model's in blocks of 7 and 1. The constant is restored after it;
- ``checkpoint``: the bytes of the training checkpoint after each of the
  three runs.

Only the groups ``class_score_grad``, ``guided_epsilon``, ``guided_sample``,
``train``, ``checkpoint``, ``train_class`` and ``train_per_image`` run a
backward, and only the last four a weight gradient.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def outputs() -> dict[str, np.ndarray]:
    """The fixed output set of the ``jdl`` on the path, by ``group/...`` name."""
    # imported here: the process that compares two trees imports neither
    from jdl.autodiff import ops
    from jdl.model import JointModel, UNetConfig
    from jdl.rng import stream
    from jdl.sampling import (GuidanceConfig, SamplerConfig, ddim_reverse_from, ddim_sample,
                              guided_epsilon)
    from jdl.schedule import make_linear_schedule
    from jdl.training import (TrainConfig, TrainData, make_optimizer, save_training_checkpoint,
                              train_joint)

    sched = make_linear_schedule(1000, 1e-4, 0.02)
    configs = {"default": UNetConfig(),
               "small": UNetConfig(base_channels=8, channel_multipliers=(1, 2),
                                   image_side=16, time_embed_dim=8, classifier_hidden=16)}
    out = {}
    for tag, cfg in configs.items():
        side, classes = cfg.image_side, cfg.num_classes
        for name, p in JointModel.build(cfg, seed=0).params.items():
            out[f"build/{tag}/{name}"] = p.data

        model = JointModel.build(cfg, seed=1)
        noise = stream(1, "drift-weights")
        # the zero-initialised output conv and head would hide most drift
        model.load_state({name: p.data + 0.05 * noise.standard_normal(p.shape)
                          for name, p in model.params.items()})
        z = stream(1, "drift-z").standard_normal((4, 1, side, side))
        for t in (1, 17, np.array([1, 17, 300, 5])):
            key = f"t{t}" if np.ndim(t) == 0 else "per_item"
            out[f"predict_noise/{tag}/{key}"] = model.predict_noise(z, t)
            out[f"class_probs/{tag}/{key}"] = model.class_probs(z, t)
        for k in range(classes):
            for toward in (True, False):
                out[f"class_score_grad/{tag}/c{k}/{toward}"] = model.class_score_grad(
                    z, 17, k, toward=toward)
        for t, direction in ((1, "toward"), (17, "away"), (300, "toward")):
            g = GuidanceConfig(target_class=1, direction=direction, scale=2.0)
            out[f"guided_epsilon/{tag}/t{t}"] = guided_epsilon(model, z, t, g, sched)
        g = GuidanceConfig(target_class=2, direction="away", scale=3.0)
        out[f"guided_sample/{tag}"] = ddim_reverse_from(
            model, z, np.array([10, 150, 300]), g, sched, stream(1, "drift-sample"), eta=0.5)
        # fixed, so that both trees see one input: 2 blocks of
        # ``sampling.EPSILON_BLOCK`` = 8 images and a remainder of 4
        blocks = stream(1, "drift-blocks").standard_normal((20, 1, side, side))
        for scale in (0.0, 2.0):
            g = GuidanceConfig(target_class=1, direction="away", scale=scale)
            out[f"guided_epsilon/{tag}/blocks/scale{scale:g}"] = guided_epsilon(
                model, blocks, 250, g, sched)
        g = GuidanceConfig(target_class=0, direction="toward", scale=2.0)
        out[f"guided_sample/{tag}/blocks"] = ddim_reverse_from(
            model, blocks, np.array([10, 150, 300]), g, sched, stream(1, "drift-sample"),
            eta=0.5)
        out[f"ddim_sample/{tag}"] = ddim_sample(
            model, 4, GuidanceConfig(), SamplerConfig(kind="ddim", ddim_steps=3), sched,
            stream(1, "drift-ddim"))

        r = stream(2, "drift-data")
        data = TrainData(z0=r.standard_normal((24, 1, side, side)),
                         labels=(r.random((24, classes)) > 0.5).astype(float),
                         labeled_mask=np.arange(24) % 3 == 0)
        joint = TrainConfig(total_steps=2, class_start_step=0, batch_diffusion=8,
                            batch_classification=4, seed=3)
        runs = [("train", joint, ops.WINDOW_BLOCK),
                ("train_class", TrainConfig(total_steps=2, class_start_step=0,
                                            diffusion_enabled=False, batch_classification=8,
                                            seed=4), ops.WINDOW_BLOCK),
                ("train_per_image", joint, 1 << 17)]
        for group, tcfg, window in runs:
            model = JointModel.build(cfg, seed=2)
            opt = make_optimizer(model, tcfg)
            ops.WINDOW_BLOCK, default_window = window, ops.WINDOW_BLOCK
            try:
                summary = train_joint(model, data, tcfg, sched, opt=opt)
            finally:
                ops.WINDOW_BLOCK = default_window
            # a loss that the step does not run reads NaN
            out[f"{group}/{tag}/losses"] = np.array(
                [(s.diffusion_loss, s.classification_loss, s.total_loss)
                 for s in summary.reports], dtype=float)
            for name, p in model.params.items():
                out[f"{group}/{tag}/weights/{name}"] = p.data
                out[f"{group}/{tag}/adam_m/{name}"] = opt.m[name]
                out[f"{group}/{tag}/adam_v/{name}"] = opt.v[name]
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "train.jdlw"
                save_training_checkpoint(path, model, opt, tcfg.total_steps)
                out[f"checkpoint/{tag}/{group}"] = np.frombuffer(path.read_bytes(),
                                                                 dtype=np.uint8)
    return out


def run_tree(src: Path, dtype: str = "float32") -> dict[str, np.ndarray]:
    """``outputs()`` of the ``jdl`` under ``src``, run in a fresh interpreter
    with BLAS pinned to one thread and the graph computing in ``dtype``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    code = ("import sys, numpy, jdl, drift; from pathlib import Path\n"
            "import jdl.autodiff.tensor as tensor\n"
            "assert Path(jdl.__file__).parents[1] == Path(sys.argv[1]), jdl.__file__\n"
            "tensor.DTYPE = numpy.dtype(sys.argv[3]).type\n"
            "numpy.savez(sys.argv[2], **drift.outputs())")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outputs.npz"
        subprocess.run([sys.executable, "-c", code, str(src.resolve()), str(path), dtype],
                       env=env, check=True)
        with np.load(path) as saved:
            return {name: saved[name] for name in saved.files}


def _drift(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest absolute difference, and that over ``b``'s largest magnitude."""
    if a.shape != b.shape:
        return np.inf, np.inf
    diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
    top = float(diff.max(initial=0.0))
    scale = float(np.abs(b.astype(np.float64)).max(initial=0.0))
    return top, (top / scale if scale else np.inf if top else 0.0)


def compare(new: dict, old: dict) -> list[tuple[str, int, int, float, float]]:
    """Per group, in the order the outputs are made: (group, outputs equal
    bitwise, outputs, max abs drift, max relative drift). An output that
    only one side has counts as differing, with infinite drift."""
    everything = dict.fromkeys((*new, *old))
    rows = []
    for group in dict.fromkeys(n.split("/")[0] for n in everything):
        names = [n for n in everything if n.split("/")[0] == group]
        equal, top_abs, top_rel = 0, 0.0, 0.0
        for name in names:
            a, b = new.get(name), old.get(name)
            if a is None or b is None:
                top_abs = top_rel = np.inf
                continue
            if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
                equal += 1
            d_abs, d_rel = _drift(a, b)
            top_abs, top_rel = max(top_abs, d_abs), max(top_rel, d_rel)
        rows.append((group, equal, len(names), top_abs, top_rel))
    return rows


def _extract_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision whose src/ the working tree is compared with")
    parser.add_argument("--dtype", choices=["float32", "float64"], default="float32",
                        help="the dtype the graph computes in, on both trees")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        old = run_tree(_extract_src(args.against, Path(tmp)), args.dtype)
    new = run_tree(ROOT / "src", args.dtype)
    rows = compare(new, old)
    print(f"{'group':<18} {'equal':>9} {'max abs':>10} {'max rel':>10}   "
          f"(working tree against {args.against}, {args.dtype})")
    for group, equal, total, d_abs, d_rel in rows:
        print(f"{group:<18} {f'{equal}/{total}':>9} {d_abs:>10.3g} {d_rel:>10.3g}")
    equal, total = sum(r[1] for r in rows), sum(r[2] for r in rows)
    print(f"{'all':<18} {f'{equal}/{total}':>9}")
    return 0 if equal == total else 1


if __name__ == "__main__":
    sys.exit(main())
