"""Distribution and signal metrics used to score sub-generators.

``frechet_moment_distance`` compares two sample sets through the first
two moments: fit a Gaussian to each (``gaussian_moments``) and take the
squared Fréchet distance between them (``moment_distance``),

    |mu_a - mu_b|^2 + tr(Sig_a) + tr(Sig_b) - 2 tr((Sig_b^1/2 Sig_a Sig_b^1/2)^1/2).

``covariance_root`` takes Sig_b^1/2 from a symmetric eigendecomposition,
so a fixed reference set pays for it once.  The last trace is the sum of
the square roots of the eigenvalues of Sig_b^1/2 Sig_a Sig_b^1/2
(symmetrized against rounding), which needs no eigenvectors.  Eigenvalues
are clipped at zero throughout, so the result is deterministic, real, and
exactly 0.0 for identical sets up to rounding.

``psnr`` is the usual peak signal-to-noise ratio over a fixed peak; a
perfect reconstruction would divide by zero, so it saturates at a large
documented cap instead.
"""

from __future__ import annotations

import numpy as np

# Signals handled here live in [-1, 1]; peak-to-peak range.
SIGNAL_PEAK = 2.0

# Returned for (near-)exact reconstructions; far above any attainable
# genuine ratio, so it is recognizably a sentinel and keeps fitness finite.
PSNR_CAP = 300.0


def covariance_root(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a covariance, eigenvalues clipped at zero."""
    values, vectors = np.linalg.eigh((cov + cov.T) / 2.0)
    values = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(values)) @ vectors.T


def gaussian_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of an (n, d) sample set, n >= 2."""
    a = np.asarray(samples, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"need an (n, d) sample set, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 samples per set to estimate covariance")
    mean = a.mean(axis=0)
    centred = a - mean
    return mean, (centred.T @ centred) / (a.shape[0] - 1)


def moment_distance(
    moments_a: tuple[np.ndarray, np.ndarray],
    moments_b: tuple[np.ndarray, np.ndarray],
    root_b: np.ndarray | None = None,
) -> float:
    """Squared Fréchet distance between two Gaussians given as (mean, covariance).

    ``root_b`` is ``covariance_root`` of the second covariance, if the
    caller keeps it; otherwise it is computed here.
    """
    mu_a, cov_a = moments_a
    mu_b, cov_b = moments_b
    if mu_a.shape != mu_b.shape:
        raise ValueError(f"need sample sets with equal d, got {mu_a.size} and {mu_b.size}")
    if root_b is None:
        root_b = covariance_root(cov_b)
    m = root_b @ cov_a @ root_b
    cross = np.clip(np.linalg.eigvalsh((m + m.T) / 2.0), 0.0, None)
    value = float(
        np.sum((mu_a - mu_b) ** 2)
        + np.trace(cov_a)
        + np.trace(cov_b)
        - 2.0 * np.sum(np.sqrt(cross))
    )
    return max(value, 0.0)


def frechet_moment_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Squared Gaussian Fréchet distance between two (n, d) sample sets."""
    return moment_distance(gaussian_moments(samples_a), gaussian_moments(samples_b))


def psnr(output: np.ndarray, target: np.ndarray, peak: float = SIGNAL_PEAK) -> float:
    """Peak signal-to-noise ratio in dB, capped at ``PSNR_CAP``."""
    out = np.asarray(output, dtype=np.float64)
    ref = np.asarray(target, dtype=np.float64)
    if out.shape != ref.shape:
        raise ValueError(f"shape mismatch: {out.shape} vs {ref.shape}")
    mse = float(np.mean((out - ref) ** 2))
    if mse <= 0.0:
        return PSNR_CAP
    value = float(10.0 * np.log10(peak * peak / mse))
    return min(value, PSNR_CAP)
