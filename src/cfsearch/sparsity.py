"""Channel scale factors and their L1 proximal update.

Each layer owns a vector of per-channel scale factors that multiply the
layer's normalized output; they are plain supernet tensors
(``SupernetWeights.gamma_tensors``).  Sparsity is driven by proximal
gradient descent: the smooth part of the loss supplies each factor's
gradient, and the L1 penalty is applied exactly through soft thresholding,

    prox(s, thr) = s - thr   if s >  thr
                   0         if |s| <= thr
                   s + thr   if s < -thr

with thr = sparsity_weight * stepsize.  Entries inside the dead
zone land on exactly 0.0, so "zero channel" is a crisp predicate rather
than a tolerance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .engine import Tensor

# All scale factors start at this value: a fixed, seed-independent point
# in the middle of the useful range, so channel ordering at the start of
# training is decided by training signal rather than by the initializer.
GAMMA_INIT = 0.5


def prox_l1(value, threshold: float):
    """Soft-thresholding operator, elementwise over arrays or scalars."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    arr = np.asarray(value, dtype=np.float64)
    out = np.where(
        arr > threshold,
        arr - threshold,
        np.where(arr < -threshold, arr + threshold, 0.0),
    )
    if np.isscalar(value) or getattr(value, "ndim", 1) == 0:
        return float(out)
    return out


def l1_value(gammas: Sequence[Tensor]) -> float:
    """Sum of |gamma| over every factor vector; 0.0 for none."""
    return float(sum(np.add.reduce(np.abs(g.data), axis=None) for g in gammas))


def prox_step(gammas: Sequence[Tensor], stepsize: float, sparsity_weight: float) -> None:
    """One proximal gradient update of every factor vector in ``gammas``.

    Each vector descends its own ``.grad``, the smooth-loss gradient (none
    counts as zero), by ``stepsize``; the L1 part is folded in exactly by
    soft thresholding at ``stepsize * sparsity_weight``.
    """
    threshold = sparsity_weight * stepsize
    for gamma in gammas:
        grad = 0.0 if gamma.grad is None else gamma.grad
        inner = gamma.data - stepsize * grad
        gamma.data = np.asarray(prox_l1(inner, threshold), dtype=np.float64)


def active_channel_mask(gamma: np.ndarray, width: int) -> np.ndarray:
    """Indicator of the channels a width-``width`` subnet keeps.

    Keeps the ``width`` channels with largest |gamma|, ties to the lowest
    index.
    """
    size = gamma.size
    if not 1 <= width <= size:
        raise ValueError(f"width {width} outside [1, {size}]")
    order = np.argsort(-np.abs(gamma), kind="stable")
    mask = np.zeros(size, dtype=np.float64)
    mask[order[:width]] = 1.0
    return mask
