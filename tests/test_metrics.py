"""Distribution distance and reconstruction quality measures."""

import numpy as np
import pytest

from cfsearch.metrics import PSNR_CAP, SIGNAL_PEAK, frechet_moment_distance, psnr


def test_identical_sets_have_zero_distance():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(50, 3))
    assert frechet_moment_distance(samples, samples) == pytest.approx(0.0, abs=1e-8)


def test_mean_shift_only():
    # Equal covariances: the distance drops to the squared mean gap.
    a = np.array([[0.0], [2.0]])
    b = np.array([[4.0], [6.0]])
    assert frechet_moment_distance(a, b) == pytest.approx(16.0)


def test_one_dimensional_closed_form():
    # d = (mu_a - mu_b)^2 + (sqrt(c_a) - sqrt(c_b))^2 for 1-D Gaussians.
    a = np.array([[0.0], [2.0]])  # mean 1, sample variance 2
    b = np.array([[0.0], [4.0]])  # mean 2, sample variance 8
    expected = 1.0 + (np.sqrt(2.0) - np.sqrt(8.0)) ** 2
    assert frechet_moment_distance(a, b) == pytest.approx(expected)
    assert frechet_moment_distance(a, b) == pytest.approx(3.0)


def test_distance_is_symmetric_and_nonnegative():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(40, 2))
    b = rng.normal(loc=0.3, size=(40, 2))
    d_ab = frechet_moment_distance(a, b)
    d_ba = frechet_moment_distance(b, a)
    assert d_ab == pytest.approx(d_ba, rel=1e-9)
    assert d_ab >= 0.0


def test_translation_of_both_sets_is_invisible():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 2))
    b = rng.normal(scale=1.5, size=(30, 2))
    shift = np.array([5.0, -3.0])
    d = frechet_moment_distance(a, b)
    d_shifted = frechet_moment_distance(a + shift, b + shift)
    assert d_shifted == pytest.approx(d, rel=1e-8)


def test_distance_input_validation():
    good = np.zeros((5, 2))
    with pytest.raises(ValueError):
        frechet_moment_distance(good, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        frechet_moment_distance(np.zeros(5), good)
    with pytest.raises(ValueError):
        frechet_moment_distance(np.zeros((1, 2)), good)


def test_psnr_known_value():
    target = np.zeros((4, 4))
    output = np.ones((4, 4))
    # mse 1, peak 2: 10 log10(4) dB.
    assert psnr(output, target) == pytest.approx(10 * np.log10(4.0))
    assert psnr(output, target, peak=1.0) == pytest.approx(0.0)


def test_psnr_perfect_match_hits_cap():
    x = np.linspace(-1, 1, 16).reshape(4, 4)
    assert psnr(x, x) == PSNR_CAP
    assert psnr(x, x + 1e-300) == PSNR_CAP


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 3)))


def test_signal_peak_matches_data_range():
    # Generator outputs live in (-1, 1) after tanh, so the advertised peak
    # covers the full swing.
    assert SIGNAL_PEAK == 2.0


def test_psnr_returns_a_python_float():
    target = np.zeros((2, 1, 4))
    assert type(psnr(target + 0.5, target)) is float
    assert type(psnr(target, target)) is float
