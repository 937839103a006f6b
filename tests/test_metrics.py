"""Distribution distance and reconstruction quality measures."""

import numpy as np
import pytest

from cfsearch.metrics import (
    PSNR_CAP,
    SIGNAL_PEAK,
    gaussian_moments,
    moment_distance,
    moment_reference,
    psnr,
)


def distance(a, b):
    """Squared Gaussian Fréchet distance between two (n, 2) sample sets."""
    return moment_distance(gaussian_moments(a), gaussian_moments(b))


def test_identical_sets_have_zero_distance():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(50, 2))
    assert distance(samples, samples) == pytest.approx(0.0, abs=1e-8)


def test_mean_shift_only():
    # Equal covariances: the distance drops to the squared mean gap.
    a = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 3.0]])
    b = a + np.array([3.0, 4.0])
    assert distance(a, b) == pytest.approx(25.0)


def test_diagonal_closed_form():
    # d = |mu_a - mu_b|^2 + sum over axes of (sqrt(c_a) - sqrt(c_b))^2 for
    # Gaussians with diagonal covariances.
    a = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])  # mean (1, 1), variances 4/3
    b = 2.0 * a  # mean (2, 2), variances 16/3
    expected = 2.0 + 2.0 * (np.sqrt(4.0 / 3.0) - np.sqrt(16.0 / 3.0)) ** 2
    assert distance(a, b) == pytest.approx(expected)
    assert distance(a, b) == pytest.approx(14.0 / 3.0)


def test_distance_is_symmetric_and_nonnegative():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(40, 2))
    b = rng.normal(loc=0.3, size=(40, 2))
    d_ab = distance(a, b)
    d_ba = distance(b, a)
    assert d_ab == pytest.approx(d_ba, rel=1e-9)
    assert d_ab >= 0.0


def test_translation_of_both_sets_is_invisible():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 2))
    b = rng.normal(scale=1.5, size=(30, 2))
    shift = np.array([5.0, -3.0])
    d = distance(a, b)
    d_shifted = distance(a + shift, b + shift)
    assert d_shifted == pytest.approx(d, rel=1e-8)


def test_distance_input_validation():
    good = np.zeros((5, 2))
    with pytest.raises(ValueError):
        distance(good, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        distance(np.zeros((5, 3)), good)
    with pytest.raises(ValueError):
        distance(np.zeros(5), good)
    with pytest.raises(ValueError):
        distance(np.zeros((1, 2)), good)
    # Only 2-D sets are scored: d = 3 is refused, not computed another way.
    rng = np.random.default_rng(3)
    three = rng.normal(size=(20, 3))
    with pytest.raises(ValueError, match="d = 3"):
        distance(three, three)
    with pytest.raises(ValueError, match="d = 3"):
        moment_reference(gaussian_moments(three))


def eigenvalue_distance(moments_a, moments_b):
    """The squared Fréchet distance through a matrix root and eigenvalues:
    Sig_b^1/2 from ``eigh``, then the eigenvalues of Sig_b^1/2 Sig_a Sig_b^1/2,
    each clipped at zero."""
    (mu_a, cov_a), (mu_b, cov_b) = moments_a, moments_b
    values, vectors = np.linalg.eigh((cov_b + cov_b.T) / 2.0)
    root = (vectors * np.sqrt(values.clip(0.0))) @ vectors.T
    m = root @ cov_a @ root
    cross = np.linalg.eigvalsh((m + m.T) / 2.0).clip(0.0)
    value = np.sum((mu_a - mu_b) ** 2) + cov_a.trace() + cov_b.trace() - 2.0 * np.sum(np.sqrt(cross))
    return max(float(value), 0.0)


def random_2d_sets(seed, count):
    """``count`` pairs of 64-point 2-D sets under random affine maps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.normal(size=(64, 2)) @ rng.normal(size=(2, 2)) + rng.normal(size=2)
        b = rng.normal(size=(64, 2)) @ rng.normal(size=(2, 2)) + rng.normal(size=2)
        yield a, b


def test_two_dimensional_closed_form_matches_the_eigenvalue_form():
    for a, b in random_2d_sets(10, 40):
        moments_a, moments_b = gaussian_moments(a), gaussian_moments(b)
        expected = eigenvalue_distance(moments_a, moments_b)
        assert moment_distance(moments_a, moments_b) == pytest.approx(expected, rel=1e-9)


def test_two_dimensional_diagonal_covariances_are_exact():
    # tr((Sig_b^1/2 Sig_a Sig_b^1/2)^1/2) = sqrt(a00 b00) + sqrt(a11 b11) when both are diagonal.
    mu_a, mu_b = np.array([0.5, -1.0]), np.array([2.0, 1.0])
    for (a00, a11), (b00, b11) in [((1.0, 4.0), (9.0, 0.25)), ((3.0, 0.7), (0.2, 5.0))]:
        cross = np.sqrt(a00 * b00) + np.sqrt(a11 * b11)
        expected = 1.5**2 + 2.0**2 + a00 + a11 + b00 + b11 - 2.0 * cross
        value = moment_distance((mu_a, np.diag([a00, a11])), (mu_b, np.diag([b00, b11])))
        assert value == pytest.approx(expected, rel=1e-12)


def test_two_dimensional_nearly_singular_set():
    # Points on a line up to a small jitter: the product's smallest
    # eigenvalue is about 1e-7 of its largest.
    rng = np.random.default_rng(11)
    t = rng.normal(size=(64, 1))
    a = t @ np.array([[1.0, 0.5]]) + 3e-4 * rng.normal(size=(64, 2))
    b = rng.normal(size=(64, 2)) * np.array([1.0, 0.6])
    moments_a, moments_b = gaussian_moments(a), gaussian_moments(b)
    (_, cov_a), (_, cov_b) = moments_a, moments_b
    eigen = np.linalg.eigvalsh(cov_a)
    assert 1e-8 < eigen[0] / eigen[1] < 1e-6
    expected = eigenvalue_distance(moments_a, moments_b)
    assert moment_distance(moments_a, moments_b) == pytest.approx(expected, rel=1e-9)


def test_two_dimensional_closed_form_keeps_the_eigenvalue_forms_finite_range():
    # Unscaled, a determinant of the larger covariances overflows and one
    # of the smaller underflows; the scaled products do neither.
    (a, b), = random_2d_sets(12, 1)
    for scale_a, scale_b in [(1e-85, 1.0), (1e75, 1.0), (1.0, 1e75), (1e-80, 1e70), (1e150, 1e-150)]:
        moments_a, moments_b = gaussian_moments(a * scale_a), gaussian_moments(b * scale_b)
        expected = eigenvalue_distance(moments_a, moments_b)
        assert np.isfinite(expected) and expected > 0.0
        assert moment_distance(moments_a, moments_b) == pytest.approx(expected, rel=1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (a * 1e200, a * np.inf, a * np.nan):
            assert np.isnan(moment_distance(gaussian_moments(bad), gaussian_moments(b)))


def test_two_dimensional_distance_calls_no_linear_algebra(monkeypatch):
    class NoLinearAlgebra:
        def __getattr__(self, name):
            raise AssertionError(f"np.linalg.{name} called")

    rng = np.random.default_rng(13)
    a = rng.normal(size=(20, 2))
    monkeypatch.setattr(np, "linalg", NoLinearAlgebra())
    assert distance(a, a + 1.0) == pytest.approx(2.0)


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
