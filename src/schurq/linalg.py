"""Dense Hermitian helpers and reference oracles.

Everything here is deliberately independent of the parameter machinery in
:mod:`schurq.params` so it can serve as a cross-check: a hand-rolled
outer-product Cholesky with an explicit zero-pivot rule, LAPACK eigenvalues
(test / entropy-variant use only), an LU determinant, and the Kronecker
product in the fixed "right" convention used throughout the package.

Index convention for ``kron(a, b)`` with ``a`` of size d1 and ``b`` of size
d2: row ``p`` of the product corresponds to the pair ``(k, l)`` with
``p = k*d2 + l`` (0-based), i.e. the first factor owns the coarse block index
and the second factor varies fastest.  All tensor-product code in the package
(states, partial transpose, Choi tensoring) assumes exactly this map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "CIRCLE_SNAP",
    "NotPSDError",
    "ConsistencyError",
    "maxnorm",
    "is_hermitian",
    "hermitize",
    "reference_cholesky",
    "reference_eigenvalues",
    "reference_determinant",
    "kron",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair; the package reads ``DEFAULT_TOL``.

    Comparisons against a matrix ``m`` use ``abs_eps + rel_eps * (1 +
    maxnorm(m))``; parameter extraction makes them on the unit-diagonal
    matrix, at scale 1 (:mod:`schurq.params`).  No function takes a
    tolerance: every threshold is decided here, from the one instance below.
    """

    abs_eps: float = 1e-10
    rel_eps: float = 1e-9

    def entry(self, scale: float) -> float:
        """Tolerance for a single entry of a matrix with max-norm ``scale``."""
        return self.abs_eps + self.rel_eps * (1.0 + scale)


DEFAULT_TOL = Tolerance()

# A log-determinant factor (diagonal entry, or 1 - |g|^2 for a unit-disc
# parameter) this close to zero is rounding noise around an exact zero:
# |g| is produced by a handful of floating-point operations, so genuine
# circle contact lands within a few ulps of 1 rather than exactly on it.
# Log-based quantities treat factors at or below this as zero instead of
# reporting the logarithm of noise.
CIRCLE_SNAP: float = 64.0 * float(np.finfo(np.float64).eps)


class NotPSDError(ValueError):
    """Raised when a matrix fails a positive-semidefiniteness test.

    Carries enough context to point at the first offending place: ``reason``
    is a short tag, ``entry`` the (row, col) pair (0-based) if applicable,
    ``band`` the off-diagonal distance ``j - k`` where extraction failed, and
    ``value`` the offending number.
    """

    def __init__(self, reason: str, entry: tuple[int, int] | None = None,
                 band: int | None = None, value: float | None = None):
        self.reason = reason
        self.entry = entry
        self.band = band
        self.value = value
        parts = [reason]
        if entry is not None:
            parts.append(f"at entry {entry}")
        if band is not None:
            parts.append(f"(band {band})")
        if value is not None:
            parts.append(f"value {value:.6g}")
        super().__init__(" ".join(parts))


class ConsistencyError(RuntimeError):
    """Raised when two routes that must agree produce different answers.

    Several operations in this package are computed twice on purpose -- a
    closed-form path and a generic one, or a reconstruction followed by a
    residual check.  Disagreement beyond the documented slack is a bug, not
    a property of the input, hence a RuntimeError rather than a ValueError.
    """


def maxnorm(m: np.ndarray) -> float:
    """Largest entry modulus; 0.0 for empty input."""
    if m.size == 0:
        return 0.0
    return float(np.maximum.reduce(np.abs(m), axis=None))


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise ValueError("matrix contains non-finite entries")
    return m.astype(np.complex128, copy=False)


def _within_hermitian_slack(m: np.ndarray, mh: np.ndarray) -> bool:
    """``max |m - mh| <= abs_eps + rel_eps * maxnorm(m)`` for ``mh = m*``."""
    return maxnorm(m - mh) <= DEFAULT_TOL.abs_eps + DEFAULT_TOL.rel_eps * maxnorm(m)


def is_hermitian(m: np.ndarray) -> bool:
    """True iff ``max |m - m*| <= abs_eps + rel_eps * maxnorm(m)``."""
    m = _as_square(m)
    return _within_hermitian_slack(m, m.conj().T)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian average of ``m``, refusing non-Hermitian input."""
    m = _as_square(m)
    mh = m.conj().T
    if not _within_hermitian_slack(m, mh):
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (m + mh)


def reference_cholesky(m: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U*U = m, by outer-product elimination.

    Unlike ``np.linalg.cholesky`` this accepts singular PSD input: when a
    pivot is (numerically) zero the whole pivot row of U is set to zero,
    which is only consistent if the remaining column of the Schur complement
    vanishes too — that residual is checked and a violation raises
    :class:`NotPSDError`, as does a genuinely negative pivot.
    """
    a = hermitize(m).copy()
    d = a.shape[0]
    u = np.zeros((d, d), dtype=np.complex128)
    scale = 1.0 + maxnorm(a)
    entry_tol = DEFAULT_TOL.entry(scale - 1.0)
    for k in range(d):
        pivot = a[k, k].real
        if pivot <= DEFAULT_TOL.abs_eps * scale:
            if pivot < -entry_tol:
                raise NotPSDError("negative pivot", entry=(k, k), value=pivot)
            # Zero pivot: the row is dropped, so the rest of the column must
            # already be (numerically) zero for m to be PSD.
            resid = maxnorm(a[k, k + 1:])
            if resid > entry_tol:
                raise NotPSDError("nonzero column at zero pivot",
                                  entry=(k, k), value=resid)
            continue
        r = np.sqrt(pivot)
        u[k, k] = r
        row = a[k, k + 1:] / r
        u[k, k + 1:] = row
        a[k + 1:, k + 1:] -= np.outer(row.conj(), row)
    return u


def reference_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix (LAPACK oracle).

    Used only in tests and in the eigenvalue-based entropy variant — never on
    the parametrization path.
    """
    return np.linalg.eigvalsh(hermitize(m))


def reference_determinant(m: np.ndarray) -> float:
    """LU-based determinant of a Hermitian matrix (real by symmetry)."""
    return float(np.linalg.det(hermitize(m)).real)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in the package-wide right convention (see module
    docstring for the index map)."""
    return np.kron(np.asarray(a, dtype=np.complex128),
                   np.asarray(b, dtype=np.complex128))
