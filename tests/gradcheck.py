"""Central finite differences for the gradient tests.

``numeric_grad`` differentiates a plain scalar function of an array by
central differences of step ``H``; ``grad_check`` holds the gradient that
``backward`` computes for a scalar ``Tensor`` function against it. Both are
test helpers, not package API, so a function that is not finite where they
evaluate it raises a plain ``ValueError``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from jdl.autodiff import Tensor, backward

H = 1e-5


def numeric_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                 coords: Optional[Iterable[int]] = None) -> np.ndarray:
    """Central differences ``(f(x + H e_i) - f(x - H e_i)) / 2H`` of scalar
    ``f`` at ``x``, one per flat index ``i`` in ``coords`` (every index by
    default), in that order."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = []
    for i in range(flat.size) if coords is None else coords:
        values = []
        for step in (H, -H):
            shifted = flat.copy()
            shifted[i] += step
            value = float(f(shifted.reshape(np.shape(x))))
            if not np.isfinite(value):
                raise ValueError("f is not finite near the point")
            values.append(value)
        out.append((values[0] - values[1]) / (2.0 * H))
    return np.asarray(out)


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor) -> float:
    """Compare the analytic gradient of scalar ``f`` at ``point`` against
    ``numeric_grad``.

    Returns the max over all coordinates of
    ``|analytic - numeric| / max(1e-8, |numeric|)``.
    """
    base = np.array(point.data, dtype=np.float64)
    x = Tensor(base.copy(), requires_grad=True)
    loss = f(x)
    if loss.data.shape not in ((), (1,)):
        raise ValueError("grad_check: f must be scalar-valued")
    if not np.isfinite(loss.data).all():
        raise ValueError("grad_check: f is not finite at the point")
    backward(loss)
    analytic = (x.grad if x.grad is not None else np.zeros_like(base)).reshape(-1)
    numeric = numeric_grad(lambda a: np.asarray(f(Tensor(a)).data).reshape(-1)[0], base)
    err = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    return float(err.max(initial=0.0))
