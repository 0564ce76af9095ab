"""Spans around the public names of ``jdl``, recorded from outside.

The traced run patches the module attributes and methods that the pipeline
looks up at call time (``jdl.autodiff.conv2d``, ``JointModel.denoise``,
``jdl.sampling.guided_epsilon``, ...). Each call records one span
``[name, start, end, parent]`` in memory; every original is restored on
exit. Nothing under ``src/`` changes, so the untraced run measures the
program exactly as shipped.
"""

from __future__ import annotations

import time
from typing import Callable

import jdl.autodiff as ad
import jdl.model as model_mod
import jdl.phantom as phantom
import jdl.sampling as sampling
import jdl.schedule as schedule
import jdl.training as training

# Primitive kinds timed one by one. All but sigmoid run in the workloads; a
# kind missing from ``jdl.autodiff`` is skipped and reports zero. An unlisted
# kind is not wrapped, so its time counts in its caller's self time.
KINDS = ("conv2d", "group_norm", "silu", "add", "matmul", "concat", "reshape",
         "upsample_nearest", "avg_pool2d", "mse", "bce_with_logits",
         "leaky_relu", "mul", "sigmoid")

GUIDED_EPSILON = "sampling.guided_epsilon"
CLASS_SCORE_GRAD = "model.class_score_grad"


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepClock:
    """Start time of every reverse step, taken at ``guided_epsilon`` entry.

    The samplers run their step loop inside ``jdl.sampling``; each step
    calls ``guided_epsilon`` once and then applies the update, so step k
    lasts from the k-th entry to the next entry (or to the sampler's
    return). One ``perf_counter`` read per step is all this adds.
    """

    def __init__(self):
        self.marks: list[float] = []
        self._patches = Patches()

    def __enter__(self) -> "StepClock":
        inner = sampling.guided_epsilon
        marks = self.marks

        def clocked(*args, **kwargs):
            marks.append(time.perf_counter())
            return inner(*args, **kwargs)

        self._patches.set(sampling, "guided_epsilon", clocked)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def steps_until(self, end: float) -> list[float]:
        """Durations of the steps marked since the last call, ending at ``end``."""
        bounds = self.marks + [end]
        self.marks.clear()
        return [b - a for a, b in zip(bounds, bounds[1:])]


class Tracer:
    """Records nested spans while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _wrap_op(self, kind: str, fn: Callable) -> Callable:
        fwd = self._wrap(f"autodiff.fwd.{kind}", fn)
        bwd_name = f"autodiff.bwd.{kind}"
        wrap = self._wrap

        def op(*args, **kwargs):
            out = fwd(*args, **kwargs)
            if out.node is not None:
                out.node.backward_fn = wrap(bwd_name, out.node.backward_fn)
            return out

        return op

    def _patch(self, owner, attr: str, name: str) -> None:
        self._patches.set(owner, attr, self._wrap(name, getattr(owner, attr)))

    def __enter__(self) -> "Tracer":
        for kind in KINDS:
            if hasattr(ad, kind):
                self._patches.set(ad, kind, self._wrap_op(kind, getattr(ad, kind)))
        self._patch(ad, "backward", "autodiff.backward")
        self._patch(ad, "save_weights", "autodiff.checkpoint.save")
        self._patch(ad, "load_weights", "autodiff.checkpoint.load")
        self._patch(training, "train_joint", "training.train_joint")
        self._patch(training, "diffusion_loss", "training.diffusion_loss")
        self._patch(training, "classification_loss", "training.classification_loss")
        self._patch(training.Adam, "step", "training.adam_step")
        self._patch(training, "q_sample", "schedule.q_sample")
        self._patch(schedule, "q_sample", "schedule.q_sample")
        for method in ("denoise", "classify", "predict_noise", "class_score_grad"):
            self._patch(model_mod.JointModel, method, f"model.{method}")
        self._patch(sampling, "guided_epsilon", GUIDED_EPSILON)
        # the sampler's own time is the DDIM update outside guided_epsilon
        self._patch(sampling, "ddim_reverse_from", "sampling.update")
        self._patch(phantom, "recover_labels", "phantom.recover_labels")
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Self time (duration minus the children's durations) and call count,
    summed per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
    return total, calls


def ops_per_epsilon(spans: list[list]) -> tuple[list[int], list[int]]:
    """Primitive counts inside each ``guided_epsilon`` call, split into
    calls that ran the classifier gradient and calls that did not."""
    owner = [-1] * len(spans)     # enclosing guided_epsilon span, if any
    for i, (name, _, _, parent) in enumerate(spans):
        if name == GUIDED_EPSILON:
            owner[i] = i
        elif parent >= 0:
            owner[i] = owner[parent]
    ops: dict[int, int] = {}
    guided: set[int] = set()
    for i, (name, _, _, _) in enumerate(spans):
        if owner[i] < 0:
            continue
        ops.setdefault(owner[i], 0)
        if name.startswith("autodiff.fwd."):
            ops[owner[i]] += 1
        elif name == CLASS_SCORE_GRAD:
            guided.add(owner[i])
    return ([n for i, n in ops.items() if i in guided],
            [n for i, n in ops.items() if i not in guided])
