"""Known answers from Toeplitz structure.

For a positive-definite Toeplitz matrix the parameters are its reflection
coefficients (Schur 1917, Levinson-Durbin), constant along each band.  The
Kac-Murdock-Szego matrix ``a^|i-j|`` has gamma = a on band 1, 0 on every
later band, and det = (1 - a^2)^(d-1).
"""

import numpy as np
import pytest

from schurq.params import SchurParams, det_from_params, forward, inverse


def kms(a: float, d: int) -> np.ndarray:
    """The Kac-Murdock-Szego matrix ``a^|i-j|``."""
    i = np.arange(d)
    return a ** np.abs(i[:, None] - i[None, :])


def band_constant(d: int, diag: float, coeffs: np.ndarray) -> SchurParams:
    """Parameters with ``gamma[k, k+b] = coeffs[b-1]`` and every L_k = diag."""
    gamma = np.zeros((d, d), dtype=np.complex128)
    for b in range(1, d):
        gamma.reshape(-1)[b::d + 1][:d - b] = coeffs[b - 1]
    return SchurParams(d, np.full(d, diag), gamma)


@pytest.mark.parametrize("a", [0.5, 0.9, 1 - 1e-6, 1 - 1e-9])
def test_kms_parameters_and_determinant(a):
    d = 12
    p = inverse(kms(a, d))
    assert np.all(p.gamma.diagonal(1) == a)
    assert max(np.abs(p.gamma.diagonal(b)).max() for b in range(2, d)) <= 1e-9
    want = (1 - a * a) ** (d - 1)
    assert abs(det_from_params(p) - want) <= 1e-12 * want


@pytest.mark.parametrize("d", [2, 5, 10, 16])
def test_forward_of_band_constant_parameters_is_toeplitz(d):
    rng = np.random.default_rng(2026)
    for _ in range(20):
        coeffs = rng.uniform(0.0, 0.9, d - 1) * np.exp(2j * np.pi * rng.uniform(size=d - 1))
        s = forward(band_constant(d, rng.uniform(0.5, 2.0), coeffs))
        for b in range(1 - d, d):
            band = s.diagonal(b)
            assert np.all(band == band[0]), b
