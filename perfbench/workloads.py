"""The benchmark's workloads and the loop that measures them.

Each workload is a closed loop with one caller: the next unit of work starts
when the previous one has returned. The workload seed is the only source of
inputs (dataset, weights, noise). The layers are the modules of ``jdl``:
``phantom``, ``schedule``, ``model``, ``autodiff``, ``training`` and
``sampling``. Three modules are not measured: ``autoencoder`` cannot run,
``pgm`` is on no pipeline path, and ``rng`` takes negligible time.

Workloads:

- ``train_b64``: default joint train steps (diffusion batch 64,
  classification batch 32), resumed at ``class_start_step`` so both losses
  and the shared-encoder backward run on every step; the run ends with a
  training checkpoint saved and restored into a fresh model and Adam.
- ``guided_ddim_b64``: 64 images from pure noise, DDIM over a fixed
  subsequence, guided toward one class.
- ``counterfactual_b8``: 8 test phantoms sharing a class, noised to
  t0 = 0.3 T, reconstructed unguided and guided away from that class, then
  read back with ``recover_labels``.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import jdl.phantom as phantom
import jdl.sampling as sampling
import jdl.schedule as schedule
import jdl.training as training
from jdl.model import JointModel, UNetConfig
from jdl.rng import stream

from tracer import KINDS, StepClock, Tracer, ops_per_epsilon, self_times

SCHEDULE = (1000, 1e-4, 0.02)     # T, beta_start, beta_end
# A freshly built model has zero-initialised ``dec.out`` and ``cls.fc2``, so
# its noise prediction and classifier gradient are exactly zero. Seeded noise
# on every parameter makes the sampling checks check something.
WEIGHT_NOISE = 0.02
SETUP_REPEATS = 3
GUIDE_CLASS = 0
GUIDE_SCALE = 1.0
CF_T0_FRAC = 0.3
SCALE0_BATCH = 8                  # batch of the scale-0 bitwise check


@dataclass(frozen=True)
class Size:
    unet: UNetConfig
    train: training.TrainConfig
    n_train: int
    n_test: int
    guided_n: int
    guided_steps: int             # DDIM subsequence length over [1, T]
    cf_n: int
    cf_steps: int                 # DDIM subsequence length over [1, t0]


SIZES = {
    "default": Size(UNetConfig(), training.TrainConfig(), n_train=2048, n_test=256,
                    guided_n=64, guided_steps=2, cf_n=8, cf_steps=10),
    # runs in seconds; the benchmark's own tests use it
    "tiny": Size(UNetConfig(base_channels=8, channel_multipliers=(1, 2),
                            time_embed_dim=8, classifier_hidden=16),
                 training.TrainConfig(batch_diffusion=4, batch_classification=4,
                                      class_start_step=2, label_fraction=0.25),
                 n_train=32, n_test=32, guided_n=4, guided_steps=2, cf_n=4, cf_steps=3),
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def perturbed_model(cfg: UNetConfig, seed: int) -> JointModel:
    model = JointModel.build(cfg, seed=seed)
    rng = stream(seed, "bench-weights")
    model.load_state({name: p.data + WEIGHT_NOISE * rng.standard_normal(p.shape)
                      for name, p in model.params.items()})
    return model


def check_images(x: np.ndarray, n: int, cfg: UNetConfig, what: str) -> None:
    shape = (n, cfg.input_channels, cfg.image_side, cfg.image_side)
    if x.shape != shape:
        raise CheckFailed(f"{what}: shape {x.shape} != {shape}")
    if not np.all(np.isfinite(x)):
        raise CheckFailed(f"{what}: non-finite values")


def scale0_matches(model: JointModel, z: np.ndarray, t: int,
                   sched: schedule.NoiseSchedule) -> bool:
    """A scale-0 guided epsilon must equal the plain prediction bitwise."""
    g0 = sampling.GuidanceConfig(target_class=GUIDE_CLASS, direction="toward", scale=0.0)
    return bool(np.array_equal(sampling.guided_epsilon(model, z, t, g0, sched),
                               model.predict_noise(z, t)))


class Workload:
    """One workload: repeated set-up, an untimed warm-up, timed units of
    work, an optional timed finish, and output checks."""

    name = ""

    def __init__(self, size: Size, seed: int, out_dir: Path):
        self.size = size
        self.seed = seed
        self.out_dir = out_dir
        self.sched = schedule.make_linear_schedule(*SCHEDULE)
        self.stats = sampling.GuidanceStats()
        self.build_dataset_s: list[float] = []
        self.readback = (0, 0)        # (exact, attempted) on clean phantoms
        self.checkpoint_bytes = 0
        self.details: dict = {}

    def _dataset(self):
        t = time.perf_counter()
        train, test = phantom.build_dataset(
            self.size.n_train, self.size.n_test,
            label_fraction=self.size.train.label_fraction, seed=self.seed)
        self.build_dataset_s.append(time.perf_counter() - t)
        return train, test

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self, clock: StepClock) -> tuple[int, list[float]]:
        """Run one unit of work; return (images, unit-step wall times)."""
        raise NotImplementedError

    # timed work that ends the run, if the workload has any
    finish = None

    def checks(self) -> dict[str, bool]:
        return {}


class TrainB64(Workload):
    name = "train_b64"

    def build(self) -> None:
        train, _ = self._dataset()
        self.data = training.TrainData(train.images, train.labels, train.labeled_mask)
        self.model = perturbed_model(self.size.unet, self.seed)
        self.cfg = dataclasses.replace(self.size.train, seed=self.seed)
        self.opt = training.make_optimizer(self.model, self.cfg)
        self.step = self.cfg.class_start_step
        self.restored = None

    def warm_up(self) -> None:
        self.unit(None)

    def unit(self, clock) -> tuple[int, list[float]]:
        cfg = dataclasses.replace(self.cfg, total_steps=self.step + 1)
        t = time.perf_counter()
        summary = training.train_joint(self.model, self.data, cfg, self.sched,
                                       opt=self.opt, start_step=self.step)
        dt = time.perf_counter() - t
        self.step += 1
        rep = summary.reports[-1]
        losses = (rep.diffusion_loss, rep.classification_loss, rep.total_loss)
        if None in losses or not np.all(np.isfinite(losses)):
            raise CheckFailed(f"step {rep.step}: losses {losses}")
        return self.cfg.batch_diffusion, [dt]

    def finish(self) -> None:
        path = self.out_dir / f"{self.name}-seed{self.seed}.ckpt"
        training.save_training_checkpoint(path, self.model, self.opt, self.step)
        self.checkpoint_bytes = path.stat().st_size
        fresh = JointModel.build(self.size.unet, seed=self.seed + 1)
        fresh_opt = training.make_optimizer(fresh, self.cfg)
        step = training.load_training_checkpoint(path, fresh, fresh_opt)
        self.restored = (step, fresh, fresh_opt)
        path.unlink()

    def checks(self) -> dict[str, bool]:
        if self.restored is None:
            return {"checkpoint_round_trip": False}
        step, fresh, opt = self.restored
        same = (step == self.step and opt.t == self.opt.t
                and all(np.array_equal(fresh.params[k].data, p.data)
                        for k, p in self.model.params.items())
                and all(np.array_equal(opt.m[k], self.opt.m[k])
                        and np.array_equal(opt.v[k], self.opt.v[k]) for k in self.opt.m))
        return {"checkpoint_round_trip": same}


class GuidedDdimB64(Workload):
    name = "guided_ddim_b64"

    def build(self) -> None:
        self.model = perturbed_model(self.size.unet, self.seed)
        self.guide = sampling.GuidanceConfig(target_class=GUIDE_CLASS, direction="toward",
                                             scale=GUIDE_SCALE)
        self.sampler = sampling.SamplerConfig(kind="ddim", ddim_steps=self.size.guided_steps)
        self.samples = 0

    def _noise(self, tag: str, n: int) -> np.ndarray:
        cfg = self.size.unet
        return stream(self.seed, tag).standard_normal(
            (n, cfg.input_channels, cfg.image_side, cfg.image_side))

    def warm_up(self) -> None:
        z = self._noise("bench-warm-up", self.size.guided_n)
        sampling.ddim_reverse_from(self.model, z, np.asarray([self.sched.T]), self.guide,
                                   self.sched, stream(self.seed, "bench-warm-up-rng"))

    def unit(self, clock: StepClock) -> tuple[int, list[float]]:
        n = self.size.guided_n
        out = sampling.ddim_sample(self.model, n, self.guide, self.sampler, self.sched,
                                   stream(self.seed, "bench-sample", self.samples),
                                   stats=self.stats)
        steps = clock.steps_until(time.perf_counter())
        self.samples += 1
        check_images(out, n, self.size.unet, f"sample {self.samples}")
        return n, steps

    def checks(self) -> dict[str, bool]:
        z = self._noise("bench-scale0", min(SCALE0_BATCH, self.size.guided_n))
        return {"scale0_bitwise": scale0_matches(self.model, z, self.sched.T // 2, self.sched)}


class CounterfactualB8(Workload):
    name = "counterfactual_b8"

    def build(self) -> None:
        _, self.test = self._dataset()
        # the class most test phantoms share, so batches rarely repeat a phantom
        self.cls = int(np.argmax(self.test.labels.sum(axis=0)))
        self.members = np.flatnonzero(self.test.labels[:, self.cls] == 1)
        self.model = perturbed_model(self.size.unet, self.seed)
        self.t0 = max(1, round(CF_T0_FRAC * self.sched.T))
        self.taus = sampling.ddim_subsequence(self.t0, self.size.cf_steps)
        self.plain = sampling.GuidanceConfig()
        self.away = sampling.GuidanceConfig(target_class=self.cls, direction="away",
                                            scale=GUIDE_SCALE)
        self.batches = 0
        self.used: set[int] = set()
        self.flips = self.read_back = 0

    def _noised(self, tag: str, b: int) -> tuple[np.ndarray, np.ndarray]:
        n = self.size.cf_n
        idx = self.members[(b * n + np.arange(n)) % self.members.size]
        z0 = self.test.images[idx]
        eps = stream(self.seed, tag, b).standard_normal(z0.shape)
        return idx, schedule.q_sample(z0, self.t0, eps, self.sched)

    def warm_up(self) -> None:
        _, zt = self._noised("bench-warm-up", 0)
        rng = stream(self.seed, "bench-warm-up-rng")
        for g in (self.plain, self.away):
            sampling.ddim_reverse_from(self.model, zt, np.asarray([self.t0]), g, self.sched, rng)

    def unit(self, clock: StepClock) -> tuple[int, list[float]]:
        b = self.batches
        self.batches += 1
        idx, zt = self._noised("bench-cf-noise", b)
        rng = stream(self.seed, "bench-cf-rng", b)     # unused at eta 0
        recon = sampling.ddim_reverse_from(self.model, zt, self.taus, self.plain,
                                           self.sched, rng)
        plain_steps = clock.steps_until(time.perf_counter())
        cf = sampling.ddim_reverse_from(self.model, zt, self.taus, self.away,
                                        self.sched, rng, stats=self.stats)
        guided_steps = clock.steps_until(time.perf_counter())
        n = self.size.cf_n
        check_images(recon, n, self.size.unet, f"batch {b} reconstruction")
        check_images(cf, n, self.size.unet, f"batch {b} counterfactual")
        for j, i in enumerate(idx):
            spec = self.test.specs[i]
            before = phantom.recover_labels(recon[j, 0], spec)
            after = phantom.recover_labels(cf[j, 0], spec)
            self.flips += int(before[self.cls] != after[self.cls])
            self.read_back += 1
        self.used.update(int(i) for i in idx)
        # one counterfactual reverse step = the unguided and the guided step at one t
        return 2 * n, [a + g for a, g in zip(plain_steps, guided_steps)]

    def checks(self) -> dict[str, bool]:
        used = sorted(self.used)
        exact = sum(np.array_equal(phantom.recover_labels(self.test.images[i, 0],
                                                          self.test.specs[i]),
                                   self.test.labels[i]) for i in used)
        self.readback = (exact, len(used))
        self.details["cf_flip_ratio"] = self.flips / max(self.read_back, 1)
        _, zt = self._noised("bench-scale0", 0)
        return {"readback_exact": bool(used) and exact == len(used),
                "scale0_bitwise": scale0_matches(self.model, zt, self.t0, self.sched)}


WORKLOADS = {w.name: w for w in (TrainB64, GuidedDdimB64, CounterfactualB8)}


@dataclass
class Phase:
    wall: float = 0.0
    images: int = 0
    steps: list = field(default_factory=list)


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def record(self, what: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {why}" if why else what)


def timed_phase(wl: Workload, seconds: float, out: Outcome, finish: bool) -> Phase:
    """Run units back to back while the next one is expected to end within
    ``seconds`` (always at least one), then the finish if asked."""
    ph = Phase()
    units = 0
    with StepClock() as clock:
        t0 = time.perf_counter()
        while True:
            try:
                images, steps = wl.unit(clock)
            except Exception as e:  # a raise is a failed operation, not a crash
                out.record(f"{wl.name} unit {units}", False, repr(e))
                break
            out.record(f"{wl.name} unit {units}", True)
            units += 1
            ph.images += images
            ph.steps += steps
            if (time.perf_counter() - t0) * (units + 1) / units > seconds:
                break
        if finish and wl.finish is not None:
            try:
                wl.finish()
                out.record(f"{wl.name} finish", True)
            except Exception as e:
                out.record(f"{wl.name} finish", False, repr(e))
        ph.wall = time.perf_counter() - t0
    return ph


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(wl: Workload, spans: list, traced: Phase, plain: Phase) -> dict:
    """Per-layer numbers from the traced phase.

    Times are self seconds per unit step, except the checkpoint and dataset
    times, which are per call. Counts are per unit step.
    """
    self_s, calls = self_times(spans)
    n = max(len(traced.steps), 1)
    m: dict[str, float] = {}
    for kind in KINDS:
        m[f"autodiff.fwd.{kind}_s"] = self_s.get(f"autodiff.fwd.{kind}", 0.0) / n
        m[f"autodiff.bwd.{kind}_s"] = self_s.get(f"autodiff.bwd.{kind}", 0.0) / n
        m[f"autodiff.ops.{kind}"] = calls.get(f"autodiff.fwd.{kind}", 0) / n
    guided, unguided = ops_per_epsilon(spans)
    m["autodiff.ops_per_guided_step"] = _median(guided)
    m["autodiff.ops_per_unguided_step"] = _median(unguided)
    for name in ("autodiff.backward", "training.train_joint", "training.adam_step",
                 "training.diffusion_loss", "training.classification_loss",
                 "model.denoise", "model.classify", "model.predict_noise",
                 "model.class_score_grad", "sampling.guided_epsilon", "sampling.update",
                 "schedule.q_sample", "phantom.recover_labels"):
        m[f"{name}_s"] = self_s.get(name, 0.0) / n
    for name in ("autodiff.checkpoint.save", "autodiff.checkpoint.load"):
        m[f"{name}_s"] = self_s.get(name, 0.0) / max(calls.get(name, 0), 1)
    m["autodiff.checkpoint.bytes"] = float(wl.checkpoint_bytes)
    m["sampling.clip_ratio"] = wl.stats.clipped / wl.stats.total if wl.stats.total else 0.0
    m["phantom.build_dataset_s"] = _median(wl.build_dataset_s)
    exact, tried = wl.readback
    m["phantom.readback_exact_ratio"] = exact / tried if tried else 0.0
    m["trace.coverage_ratio"] = sum(self_s.values()) / traced.wall
    base = _median(plain.steps)
    m["trace.overhead_ratio"] = _median(traced.steps) / base - 1.0 if base else 0.0
    return m


def run(name: str, size: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> tuple[Workload, Outcome]:
    """Set up, warm up, measure and check one workload."""
    wl = WORKLOADS[name](SIZES[size], seed, out_dir)
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - t)
    t = time.perf_counter()
    wl.warm_up()
    setup_s = _median(builds) + time.perf_counter() - t

    out = Outcome()
    if not trace:
        ph = timed_phase(wl, seconds, out, finish=True)
        wl.details.update(step_s=ph.steps, wall_s=ph.wall, setup_builds_s=builds)
        out.metrics = {
            "setup_s": setup_s,
            "images_per_s": ph.images / ph.wall,
            "step_p50_s": _median(ph.steps),
            "peak_rss_mb": peak_rss_mib(),
        }
    else:
        # half the run untraced, half traced: their gap is the tracing overhead
        plain = timed_phase(wl, seconds / 2, out, finish=False)
        with Tracer() as tracer:
            traced = timed_phase(wl, seconds / 2, out, finish=True)
        out.spans = tracer.spans
        wl.details.update(step_s=plain.steps, traced_step_s=traced.steps,
                          traced_wall_s=traced.wall, setup_builds_s=builds)
    for check, ok in wl.checks().items():
        out.record(f"{name} check {check}", ok)
    if trace:
        out.metrics = layer_metrics(wl, out.spans, traced, plain)
    return wl, out
