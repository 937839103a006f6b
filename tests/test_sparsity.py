"""Soft thresholding, the proximal step on scale factors, and channel masks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfsearch.engine import Tensor
from cfsearch.sparsity import GAMMA_INIT, active_channel_mask, l1_value, prox_l1, prox_step


def soft_threshold_reference(x: float, lam: float) -> float:
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def test_prox_three_branches():
    assert prox_l1(0.75, 0.45) == pytest.approx(0.3)
    assert prox_l1(0.3, 0.45) == 0.0
    assert prox_l1(-0.3, 0.45) == 0.0
    assert prox_l1(-0.75, 0.45) == pytest.approx(-0.3)
    assert prox_l1(0.45, 0.45) == 0.0


def test_prox_zero_threshold_is_identity():
    values = np.linspace(-2, 2, 11)
    assert np.array_equal(prox_l1(values, 0.0), values)


def test_prox_matches_closed_form_on_grid():
    grid = np.linspace(-5.0, 5.0, 1000)
    for lam in (0.0, 0.1, 1.0, 2.5):
        expected = np.array([soft_threshold_reference(x, lam) for x in grid])
        assert np.array_equal(prox_l1(grid, lam), expected)


def test_prox_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox_l1(1.0, -0.1)


@given(
    st.floats(-100, 100, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
)
def test_prox_shrinks_toward_zero(x, lam):
    out = prox_l1(x, lam)
    assert abs(out) <= abs(x) + 1e-12
    assert abs(out) == pytest.approx(max(abs(x) - lam, 0.0), abs=1e-9)
    if out != 0.0:
        assert np.sign(out) == np.sign(x)


def factors(*grads):
    """One trainable factor vector at ``GAMMA_INIT`` per gradient, holding it."""
    gammas = []
    for grad in grads:
        gamma = Tensor(np.full(len(grad), GAMMA_INIT), requires_grad=True)
        gamma.grad = np.asarray(grad, dtype=np.float64)
        gammas.append(gamma)
    return gammas


def test_prox_step_hand_example():
    # eta = 0.1, lambda = 2.0 so threshold 0.2; gamma starts at 0.5.
    gammas = factors([1.0, -1.0])
    prox_step(gammas, 0.1, 2.0)
    # inner = 0.5 - 0.1*grad = (0.4, 0.6); shrink by 0.2 -> (0.2, 0.4).
    assert np.allclose(gammas[0].data, [0.2, 0.4])


def test_prox_step_produces_exact_zeros():
    gammas = factors([1.0, 0.9, -2.0])
    prox_step(gammas, 0.5, 1.0)
    # inner = (0.0, 0.05, 1.5); threshold 0.5 -> (0, 0, 1.0).
    assert np.array_equal(gammas[0].data, [0.0, 0.0, 1.0])
    assert np.count_nonzero(gammas[0].data == 0.0) == 2


def test_prox_step_reads_a_missing_gradient_as_zero():
    with_grad, without = factors([0.0, 0.0], [0.0, 0.0])
    without.grad = None
    prox_step([with_grad, without], 0.1, 2.0)
    # Both only shrink by the threshold 0.2.
    assert np.array_equal(without.data, with_grad.data)
    assert np.allclose(without.data, [0.3, 0.3])


def test_l1_value_sums_magnitudes_over_every_vector():
    gammas = factors([0.0, 0.0], [0.0, 0.0])
    gammas[1].data = np.array([-1.5, 0.25])
    assert l1_value(gammas) == pytest.approx(2 * GAMMA_INIT + 1.75)
    assert l1_value([]) == 0.0


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
