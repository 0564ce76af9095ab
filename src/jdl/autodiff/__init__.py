"""Minimal reverse-mode autodiff over dense float32 arrays (``tensor.DTYPE``)."""

from .tensor import Tensor, backward, no_grad, op_count
from .ops import (
    add, mul, matmul, conv2d, avg_pool2d, silu, leaky_relu, group_norm, concat,
    reshape, mse, bce_with_logits,
)
from .checkpoint import save_weights, load_weights, check_shapes

__all__ = [
    "Tensor", "backward", "no_grad", "op_count",
    "add", "mul", "matmul", "conv2d", "avg_pool2d", "silu", "leaky_relu",
    "group_norm", "concat", "reshape", "mse", "bce_with_logits",
    "save_weights", "load_weights", "check_shapes",
]
