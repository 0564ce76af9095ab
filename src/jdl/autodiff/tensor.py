"""Reverse-mode automatic differentiation over dense float32 arrays.

``DTYPE`` is the one compute dtype: ``Tensor`` casts every array it is
given to it, and every primitive and backward rule keeps the dtype of the
arrays it is handed, so nothing else names one. Code outside the graph
(the noise schedule, the phantoms, the sampler's update) stays in float64,
and the model casts its inputs on entry.

Every primitive hands ``record`` its output and one ``(parent, vjp)`` pair
per input, where the vjp maps the output gradient to that input's gradient.
``record`` alone decides which gradients exist: it keeps the pairs whose
parent requires grad and drops the rest, and under ``no_grad`` it keeps
none. A dropped vjp is freed with whatever it alone captured, and a node
is built only when some pair is kept. Nodes carry a monotonically
increasing sequence number; ``backward`` replays the nodes reachable from
the loss in reverse insertion order, visiting each exactly once and
accumulating gradients additively across fan-out.

``backward`` consumes the graph: each node drops its backward rule and its
parents once replayed, so the activations and buffers the rules hold are
freed while backward runs, not when the caller lets go of the loss. Output
tensors keep their data. A second ``backward`` that reaches a consumed node
raises ``GraphConsumed``.

Graph construction and backward are single-threaded. A tensor whose data is
populated and which is not part of a pending graph is immutable by
convention and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import GraphConsumed, NotScalar

DTYPE = np.float32

_node_seq = itertools.count()

# Set of kinds observed while an op_count() context is active.
_counters: list[dict] = []

_grad_enabled = True


class Node:
    """One recorded primitive application: its kind, the parents that
    require grad, and a backward rule that maps the output gradient to one
    gradient per parent, in order."""

    __slots__ = ("kind", "parents", "backward_fn", "seq")

    def __init__(self, kind: str, parents: Sequence["Tensor"],
                 backward_fn: Callable[[np.ndarray], Sequence[np.ndarray]]):
        self.kind = kind
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.seq = next(_node_seq)


class Tensor:
    """Dense n-dimensional array of dtype ``DTYPE``, optionally tracked by
    the graph."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[Node] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; forward values are still computed."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def op_count():
    """Count primitive applications by kind within the context.

    Yields a dict that fills in place; useful for asserting that a code path
    runs the encoder once rather than twice.
    """
    counter: dict = {}
    _counters.append(counter)
    try:
        yield counter
    finally:
        _counters.remove(counter)


def _tally(kind: str) -> None:
    for counter in _counters:
        counter[kind] = counter.get(kind, 0) + 1


def record(kind: str, out_data: np.ndarray,
           *rules: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Wrap a primitive result. ``rules`` holds one ``(parent, vjp)`` pair
    per input; only the pairs whose parent requires grad are kept, and none
    under ``no_grad``. The output tracks grad iff some pair is kept."""
    _tally(kind)
    kept = [(p, vjp) for p, vjp in rules if p.requires_grad] if _grad_enabled else []
    out = Tensor(out_data, requires_grad=bool(kept))
    if kept:
        parents, vjps = zip(*kept)
        out.node = Node(kind, parents, lambda g: [vjp(g) for vjp in vjps])
    return out


def _accumulate(leaf: Tensor, g: np.ndarray) -> None:
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    leaf.grad += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    Gradients accumulate additively into existing ``grad`` buffers, so clear
    them between optimization steps (``training.Adam.zero_grad``). The graph
    behind ``loss`` is consumed: build it again to run backward again.
    """
    if loss.data.shape not in ((), (1,)):
        raise NotScalar(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss.node is None:
        if loss.requires_grad:
            _accumulate(loss, np.ones_like(loss.data))
        return

    # Collect the subgraph reachable from the loss.
    reachable: list[Node] = []
    seen: set[int] = set()
    stack = [loss.node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        if node.backward_fn is None:
            raise GraphConsumed(
                f"backward already ran over this graph (at a {node.kind} node)")
        seen.add(id(node))
        reachable.append(node)
        for p in node.parents:
            if p.node is not None and id(p.node) not in seen:
                stack.append(p.node)

    reachable.sort(key=lambda n: n.seq, reverse=True)

    # Gradient buffers keyed by producing node; leaves accumulate in place.
    grads: dict[int, np.ndarray] = {id(loss.node): np.ones_like(loss.data)}
    # every node but the loss's was reached from a child with a higher
    # sequence number, which has run and given it a gradient by now
    for node in reachable:
        out_grad = grads.pop(id(node))
        parents, backward_fn = node.parents, node.backward_fn
        node.parents, node.backward_fn = (), None
        for parent, g in zip(parents, backward_fn(out_grad)):
            if parent.node is None:
                _accumulate(parent, g)
            else:
                key = id(parent.node)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
