"""Elementary autodiff ops that the tests compare the engine's fused ops against.

The program runs only fused ops (``conv1d`` with its bias, ``tanh`` and
skip, the GAN loss nodes, ``pooled_linear``...).  Each is documented to do
the same float operations in the same order as a chain of the ops here, so
the tests build that chain and require equal bits.  The ops are written on
``Tensor._make`` like the engine's own, and ``finite_difference_gradient``
is the independent check of every backward pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from cfsearch.engine import Tensor, _unbroadcast, mean, sigmoid


def add(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    return Tensor._make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    return Tensor._make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def neg(x: Tensor) -> Tensor:
    return Tensor._make(-x.data, (x,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._make(
        a.data @ b.data,
        (a, b),
        lambda g: (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        ),
    )


def reshape(x: Tensor, *shape: int) -> Tensor:
    return Tensor._make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return Tensor._make(y, (x,), lambda g: (g * (1.0 - y * y),))


def softplus(x: Tensor) -> Tensor:
    y = np.logaddexp(0.0, x.data)
    return Tensor._make(y, (x,), lambda g: (g * sigmoid(x.data),))


def absolute(x: Tensor) -> Tensor:
    return Tensor._make(np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


def square(x: Tensor) -> Tensor:
    return Tensor._make(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return Tensor._make(
        np.asarray(mean(x.data)),
        (x,),
        lambda g: (np.broadcast_to(g / n, x.data.shape).copy(),),
    )


def sum_all(x: Tensor) -> Tensor:
    return Tensor._make(
        np.asarray(x.data.sum()),
        (x,),
        lambda g: (np.broadcast_to(g, x.data.shape).copy(),),
    )


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Mean along one axis, keeping it as size 1."""
    n = x.data.shape[axis]
    y = np.add.reduce(x.data, axis=axis, keepdims=True) / n
    return Tensor._make(
        y,
        (x,),
        lambda g: (np.broadcast_to(g / n, x.data.shape).copy(),),
    )


def finite_difference_gradient(
    fn: Callable[[], float], tensor: Tensor, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of ``fn`` with respect to ``tensor``.

    ``fn`` must recompute the scalar from current ``tensor.data``.  Used
    as the independent oracle for backward-pass checks; touches no
    autodiff machinery.
    """
    base = tensor.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn()
        flat[i] = keep - step
        lo = fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad
