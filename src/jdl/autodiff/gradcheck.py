"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import NonFiniteFunction, NotScalar
from .tensor import Tensor, backward


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor) -> float:
    """Compare the analytic gradient of scalar ``f`` at ``point`` against
    central differences of step 1e-5.

    Returns the max over all coordinates of
    ``|analytic - numeric| / max(1e-8, |numeric|)``.
    """
    base = np.array(point.data, dtype=np.float64)

    x = Tensor(base.copy(), requires_grad=True)
    loss = f(x)
    if loss.data.shape not in ((), (1,)):
        raise NotScalar("grad_check: f must be scalar-valued")
    if not np.isfinite(loss.data).all():
        raise NonFiniteFunction("grad_check: f is not finite at the point")
    backward(loss)
    analytic = (x.grad if x.grad is not None else np.zeros_like(base)).reshape(-1)

    def eval_at(flat: np.ndarray) -> float:
        out = f(Tensor(flat.reshape(base.shape)))
        val = float(np.asarray(out.data).reshape(-1)[0])
        if not np.isfinite(val):
            raise NonFiniteFunction("grad_check: f is not finite near the point")
        return val

    flat = base.reshape(-1)
    h = 1e-5
    worst = 0.0
    for i in range(flat.size):
        shifted = flat.copy()
        shifted[i] = flat[i] + h
        f_plus = eval_at(shifted)
        shifted[i] = flat[i] - h
        f_minus = eval_at(shifted)
        numeric = (f_plus - f_minus) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1e-8, abs(numeric))
        worst = max(worst, err)
    return worst
