"""Channel scale factors and their L1 proximal update.

Each layer owns a vector of per-channel scale factors that multiply the
layer's normalized output.  Sparsity is driven by proximal gradient
descent: the smooth part of the loss supplies a gradient, and the L1
penalty is applied exactly through soft thresholding,

    prox(s, thr) = s - thr   if s >  thr
                   0         if |s| <= thr
                   s + thr   if s < -thr

with thr = sparsity_weight * learning_rate.  Entries inside the dead
zone land on exactly 0.0, so "zero channel" is a crisp predicate rather
than a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class ScaleFactorBank:
    """Scale factors for one generator path, plus update hyperparameters.

    ``gammas[l]`` is the layer-l factor vector (a trainable Tensor whose
    length is the layer's maximal width).  ``learning_rate`` with
    ``lr_decay`` defines the stepsize schedule eta(t) = lr * decay**t,
    and ``sparsity_weight`` is the L1 coefficient.
    """

    gammas: list[Tensor]
    learning_rate: float
    sparsity_weight: float
    lr_decay: float = 1.0

    @staticmethod
    def create(
        layer_widths: Sequence[int],
        learning_rate: float,
        sparsity_weight: float,
        lr_decay: float = 1.0,
    ) -> "ScaleFactorBank":
        gammas = [
            Tensor(np.full(w, GAMMA_INIT, dtype=np.float64), requires_grad=True)
            for w in layer_widths
        ]
        return ScaleFactorBank(gammas, learning_rate, sparsity_weight, lr_decay)

    def stepsize(self, t: int) -> float:
        return self.learning_rate * self.lr_decay**t

    def l1_value(self) -> float:
        return float(sum(np.add.reduce(np.abs(g.data), axis=None) for g in self.gammas))

    def zero_count(self) -> int:
        return sum(int(np.count_nonzero(g.data == 0.0)) for g in self.gammas)


def prox_step(bank: ScaleFactorBank, grads: Sequence[np.ndarray], t: int) -> None:
    """One proximal gradient update of every factor vector in the bank.

    ``grads[l]`` is the smooth-loss gradient for layer l at step ``t``.
    The inner step is plain gradient descent with eta(t); the L1 part is
    folded in exactly by soft thresholding at eta(t) * sparsity_weight.
    """
    eta = bank.stepsize(t)
    threshold = bank.sparsity_weight * eta
    for gamma, grad in zip(bank.gammas, grads):
        inner = gamma.data - eta * grad
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
