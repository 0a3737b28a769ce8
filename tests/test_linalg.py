import numpy as np
import pytest

from schurq.linalg import (
    NotPSDError,
    Tolerance,
    hermitize,
    is_hermitian,
    kron,
    maxnorm,
    reference_cholesky,
    reference_determinant,
    reference_eigenvalues,
)


def test_is_hermitian_basic():
    assert is_hermitian(np.eye(2))
    assert is_hermitian(np.array([[1, 0.6], [0.6, 1]]))
    assert not is_hermitian(np.array([[0, 1j], [1j, 0]]))


def test_is_hermitian_rejects_nonsquare():
    with pytest.raises(ValueError):
        is_hermitian(np.zeros((2, 3)))


def test_is_hermitian_rejects_nonfinite():
    with pytest.raises(ValueError):
        is_hermitian(np.array([[np.nan, 0], [0, 1]]))


def test_hermitize_messages():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        hermitize(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4,\)$"):
        hermitize(np.zeros(4))
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        hermitize(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        hermitize(np.array([[1.0, 1e-6], [0.0, 1.0]]))


def test_hermitize_averages_within_tolerance():
    m = np.array([[2.0, 1.0 + 1e-11j], [1.0, 3.0]])
    assert is_hermitian(m)
    h = hermitize(m)
    assert h.dtype == np.complex128
    np.testing.assert_array_equal(h, 0.5 * (m + m.conj().T))
    np.testing.assert_array_equal(hermitize(h), h)  # exact on Hermitian input


def test_reference_cholesky_hand_case():
    u = reference_cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
    np.testing.assert_allclose(u, [[2, 1], [0, 1]], atol=1e-14)


def test_reference_cholesky_identity():
    np.testing.assert_allclose(reference_cholesky(np.eye(3)), np.eye(3))


def test_reference_cholesky_rejects_indefinite():
    with pytest.raises(NotPSDError):
        reference_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_reference_cholesky_zero_pivot_rule():
    # Singular PSD factors; the zero-pivot row is dropped.
    m = np.diag([1.0, 0.0, 2.0])
    u = reference_cholesky(m)
    np.testing.assert_allclose(u.conj().T @ u, m, atol=1e-14)
    # A zero pivot with a surviving column is not PSD.
    bad = np.array([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPSDError):
        reference_cholesky(bad)


def test_reference_cholesky_random_psd():
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        for _ in range(20):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = x.conj().T @ x
            u = reference_cholesky(m)
            assert maxnorm(np.triu(u) - u) == 0
            assert maxnorm(u.conj().T @ u - m) <= 1e-9 * (1 + maxnorm(m))


def test_reference_eigenvalues():
    np.testing.assert_allclose(reference_eigenvalues(np.eye(2)), [1, 1])
    np.testing.assert_allclose(
        reference_eigenvalues(np.array([[1, 0.5], [0.5, 1]])), [0.5, 1.5])
    np.testing.assert_allclose(reference_eigenvalues(np.diag([1.0, 0.0])), [0, 1])


def test_reference_eigenvalues_psd_floor():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = rng.integers(1, 9)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = x.conj().T @ x
        assert reference_eigenvalues(m)[0] >= -1e-9 * maxnorm(m)


def test_kron_convention():
    np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[0, 5], [6, 7]])
    k = kron(a, b)
    # row p = k*d2 + l: the first factor owns the coarse block.
    assert k[0, 1] == a[0, 0] * b[0, 1]
    assert k[0, 3] == a[0, 1] * b[0, 1]
    e = np.array([[1.0], [0.0]])
    f = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(kron(e, f).ravel(), [0, 1, 0, 0])


def test_kron_determinant_identity():
    rng = np.random.default_rng(5)
    for da, db in [(2, 2), (2, 3), (3, 4)]:
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        a = a + a.conj().T
        b = b + b.conj().T
        want = reference_determinant(a) ** db * reference_determinant(b) ** da
        np.testing.assert_allclose(reference_determinant(kron(a, b)), want,
                                   rtol=1e-9)


def test_tolerance_defaults():
    tol = Tolerance()
    assert tol.abs_eps == 1e-10 and tol.rel_eps == 1e-9
