"""Distribution and signal metrics used to score sub-generators.

Translation outputs, which are always 2-D, are compared with a reference
set through the first two moments: fit a Gaussian to each
(``gaussian_moments``) and take the squared Fréchet distance between them
(``moment_distance``),

    |mu_a - mu_b|^2 + tr(Sig_a) + tr(Sig_b) - 2 tr((Sig_b^1/2 Sig_a Sig_b^1/2)^1/2).

For d = 2 the last trace is a closed form in Python floats, with no
matrix root and no LAPACK call: its square is tr(Sig_a Sig_b) + 2
sqrt(det Sig_a det Sig_b), the eigenvalues' sum plus twice the root of
their product.  Each covariance is first scaled by an exact even power of
two to entries near 1, and the trace, homogeneous of degree 1/2 in each,
is scaled back, so no product over- or underflows where the eigenvalue
form stays finite.  Any other d raises ``ValueError``; nothing in the
program scores such sets.  ``moment_reference`` prepares what depends on
the second Gaussian alone once, for a reference many sets are scored
against.  The form clips at zero before each root, so the result is
deterministic, real, and 0.0 for identical sets up to rounding.  On a
nearly singular set the distance is ill-conditioned: the root of a tiny
determinant product magnifies a rounding error in it, so the closed form
may differ there far beyond one ulp from the eigenvalue form, the sum of
the square roots of the eigenvalues of Sig_b^1/2 Sig_a Sig_b^1/2.

``psnr`` is the usual peak signal-to-noise ratio over a fixed peak; a
perfect reconstruction would divide by zero, so it saturates at a large
documented cap instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Signals handled here live in [-1, 1]; peak-to-peak range.
SIGNAL_PEAK = 2.0

# Returned for (near-)exact reconstructions; far above any attainable
# genuine ratio, so it is recognizably a sentinel and keeps fitness finite.
PSNR_CAP = 300.0


def gaussian_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of an (n, d) sample set, n >= 2."""
    a = np.asarray(samples, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"need an (n, d) sample set, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 samples per set to estimate covariance")
    n = a.shape[0]
    mean = np.add.reduce(a, 0)
    mean /= n
    centred = a - mean
    cov = centred.T @ centred
    cov /= n - 1
    return mean, cov


@dataclass(frozen=True)
class MomentReference:
    """A 2-D Gaussian prepared as the second argument of ``moment_distance``.

    ``mean`` is its mean and ``trace`` its covariance's trace.  ``factor``
    is (c00, c01, c11, back): the covariance's entries scaled near 1 and
    the factor that scales a root back (see ``_near_one``).
    """

    mean: np.ndarray
    trace: float
    factor: tuple[float, float, float, float]


def moment_reference(moments: tuple[np.ndarray, np.ndarray]) -> MomentReference:
    """A 2-D (mean, covariance) prepared once for many ``moment_distance`` calls.

    Any other d raises ``ValueError``.
    """
    mu, cov = moments
    if mu.shape != (2,):
        raise ValueError(f"need 2-D sample sets, got d = {mu.size}")
    (c00, c01), (_, c11) = cov.tolist()
    return MomentReference(mu, c00 + c11, _near_one(c00, c01, c11))


def moment_distance(
    moments_a: tuple[np.ndarray, np.ndarray],
    moments_b: tuple[np.ndarray, np.ndarray] | MomentReference,
) -> float:
    """Squared Fréchet distance between two 2-D Gaussians given as (mean, covariance).

    ``moments_b`` may be a ``MomentReference``, which gives the same value.
    Every step after ``tolist()`` is Python float arithmetic, the
    difference of the means too, which rounds as numpy's subtraction does.
    Any d other than 2 raises ``ValueError``.
    """
    mu_a, cov_a = moments_a
    ref = moments_b if isinstance(moments_b, MomentReference) else moment_reference(moments_b)
    if mu_a.shape != (2,):
        raise ValueError(f"need 2-D sample sets, got d = {mu_a.size}")
    (a0, a1), (b0, b1) = mu_a.tolist(), ref.mean.tolist()
    d0, d1 = a0 - b0, a1 - b1
    (a00, a01), (_, a11) = cov_a.tolist()
    value = d0 * d0 + d1 * d1 + (a00 + a11) + ref.trace
    a00, a01, a11, back_a = _near_one(a00, a01, a11)
    b00, b01, b11, back_b = ref.factor
    dets = max((a00 * a11 - a01 * a01) * (b00 * b11 - b01 * b01), 0.0)
    cross = max(a00 * b00 + 2.0 * a01 * b01 + a11 * b11 + 2.0 * math.sqrt(dets), 0.0)
    return max(value - 2.0 * math.sqrt(cross) * back_a * back_b, 0.0)


def _near_one(c00: float, c01: float, c11: float) -> tuple[float, float, float, float]:
    """A 2×2 covariance times an exact 2**e, e even, that brings it near 1, and 2**(-e/2)."""
    e = -2 * (math.frexp(max(abs(c00), abs(c01), abs(c11)))[1] // 2)
    return math.ldexp(c00, e), math.ldexp(c01, e), math.ldexp(c11, e), math.ldexp(1.0, -e // 2)


def psnr(output: np.ndarray, target: np.ndarray, peak: float = SIGNAL_PEAK) -> float:
    """Peak signal-to-noise ratio in dB, capped at ``PSNR_CAP``."""
    out = np.asarray(output, dtype=np.float64)
    ref = np.asarray(target, dtype=np.float64)
    if out.shape != ref.shape:
        raise ValueError(f"shape mismatch: {out.shape} vs {ref.shape}")
    d = out - ref
    d *= d
    mse = float(np.add.reduce(d, axis=None) / d.size)
    if mse <= 0.0:
        return PSNR_CAP
    value = float(10.0 * np.log10(peak * peak / mse))
    return min(value, PSNR_CAP)
