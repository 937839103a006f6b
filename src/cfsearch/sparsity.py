"""Channel scale factors: their descent step and the channel masks they rank.

Each layer owns a vector of per-channel scale factors that multiply the
layer's normalized output; they are plain supernet tensors
(``SupernetWeights.gamma_tensors``).  Pretraining moves them by plain
gradient descent on the training loss, with a stepsize of their own, and
a width-``w`` subnet keeps the ``w`` channels of each layer with largest
|gamma|.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .engine import Tensor

# All scale factors start at this value: a fixed, seed-independent point
# in the middle of the useful range, so channel ordering at the start of
# training is decided by training signal rather than by the initializer.
GAMMA_INIT = 0.5


def prox_step(gammas: Sequence[Tensor], stepsize: float) -> None:
    """One descent step of every factor vector in ``gammas``.

    Each vector becomes ``gamma - stepsize * grad`` with its own
    ``.grad``, the loss gradient (none counts as zero), which the step
    then clears.
    """
    for gamma in gammas:
        if gamma.grad is not None:
            gamma.data = gamma.data - stepsize * gamma.grad
        gamma.grad = None


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
