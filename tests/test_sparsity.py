"""The descent step on scale factors, and channel masks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfsearch.engine import Tensor
from cfsearch.sparsity import GAMMA_INIT, active_channel_mask, prox_step


def factors(*grads):
    """One trainable factor vector at ``GAMMA_INIT`` per gradient, holding it."""
    gammas = []
    for grad in grads:
        gamma = Tensor(np.full(len(grad), GAMMA_INIT), requires_grad=True)
        gamma.grad = np.asarray(grad, dtype=np.float64)
        gammas.append(gamma)
    return gammas


def test_prox_step_hand_example():
    gammas = factors([1.0, -1.0, 0.0])
    prox_step(gammas, 0.25)
    assert np.array_equal(gammas[0].data, [0.25, 0.75, 0.5])


_FLOATS = st.floats(-100, 100, allow_nan=False)


@given(
    st.lists(st.tuples(_FLOATS, _FLOATS), min_size=1, max_size=6),
    st.floats(0, 10, allow_nan=False),
)
def test_prox_step_moves_each_factor_by_exactly_its_scaled_gradient(pairs, stepsize):
    start = np.array([value for value, _ in pairs])
    grad = np.array([g for _, g in pairs])
    gamma = Tensor(start.copy(), requires_grad=True)
    gamma.grad = grad.copy()
    prox_step([gamma], stepsize)
    assert np.array_equal(gamma.data, start - stepsize * grad)


def test_prox_step_reads_a_missing_gradient_as_zero():
    with_grad, without = factors([1.0, -2.0], [0.0, 0.0])
    without.grad = None
    prox_step([with_grad, without], 0.1)
    assert np.array_equal(without.data, [GAMMA_INIT, GAMMA_INIT])
    assert np.array_equal(with_grad.data, GAMMA_INIT - 0.1 * np.array([1.0, -2.0]))


def test_prox_step_clears_every_gradient():
    gammas = factors([1.0], [0.0, 3.0], [-2.0, 0.5, 4.0])
    gammas[1].grad = None
    prox_step(gammas, 0.5)
    assert all(gamma.grad is None for gamma in gammas)


def test_top_k_mask_keeps_largest_magnitudes():
    gamma = np.array([0.1, -0.9, 0.5, 0.0])
    mask = active_channel_mask(gamma, width=2)
    assert np.array_equal(mask, [0, 1, 1, 0])


def test_top_k_mask_breaks_ties_to_lowest_index():
    gamma = np.array([0.5, 0.5, 0.5, 0.5])
    mask = active_channel_mask(gamma, width=2)
    assert np.array_equal(mask, [1, 1, 0, 0])


def test_mask_width_bounds():
    gamma = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        active_channel_mask(gamma, width=0)
    with pytest.raises(ValueError):
        active_channel_mask(gamma, width=3)
    assert np.array_equal(active_channel_mask(gamma, width=2), [1, 1])
