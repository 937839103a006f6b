"""Soft thresholding, scale-factor banks, and channel masks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfsearch.engine import Tensor
from cfsearch.sparsity import (
    GAMMA_INIT,
    ScaleFactorBank,
    active_channel_mask,
    prox_l1,
    prox_step,
)


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


def test_prox_scalar_in_scalar_out():
    out = prox_l1(1.5, 0.5)
    assert isinstance(out, float)
    arr = prox_l1(np.array([1.5, -1.5]), 0.5)
    assert isinstance(arr, np.ndarray)


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


def test_bank_creation_and_stepsize_schedule():
    bank = ScaleFactorBank.create([3, 5], learning_rate=0.1, sparsity_weight=0.01, lr_decay=0.5)
    assert [g.data.size for g in bank.gammas] == [3, 5]
    assert all(np.all(g.data == GAMMA_INIT) for g in bank.gammas)
    assert bank.stepsize(0) == 0.1
    assert bank.stepsize(2) == pytest.approx(0.025)


def test_prox_step_hand_example():
    # eta = 0.1, lambda = 2.0 so threshold 0.2; gamma starts at 0.5.
    bank = ScaleFactorBank.create([2], learning_rate=0.1, sparsity_weight=2.0)
    grads = [np.array([1.0, -1.0])]
    prox_step(bank, grads, t=0)
    # inner = 0.5 - 0.1*grad = (0.4, 0.6); shrink by 0.2 -> (0.2, 0.4).
    assert np.allclose(bank.gammas[0].data, [0.2, 0.4])


def test_prox_step_produces_exact_zeros():
    bank = ScaleFactorBank.create([3], learning_rate=0.5, sparsity_weight=1.0)
    grads = [np.array([1.0, 0.9, -2.0])]
    prox_step(bank, grads, t=0)
    # inner = (0.0, 0.05, 1.5); threshold 0.5 -> (0, 0, 1.0).
    assert np.array_equal(bank.gammas[0].data, [0.0, 0.0, 1.0])
    assert bank.zero_count() == 2
    assert bank.zero_fraction() == pytest.approx(2 / 3)


def test_bank_l1_and_zero_grad():
    bank = ScaleFactorBank.create([2, 2], learning_rate=0.1, sparsity_weight=0.0)
    assert bank.l1_value() == pytest.approx(4 * GAMMA_INIT)
    for g in bank.gammas:
        g.grad = np.ones_like(g.data)
    bank.zero_grad()
    assert all(g.grad is None for g in bank.gammas)


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
