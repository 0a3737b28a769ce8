"""Contraction-parameter coordinates for PSD matrices.

A Hermitian PSD matrix ``S`` of size d is coordinatized by

* nonnegative diagonal factors ``L_k = sqrt(S_kk)``, and
* strictly upper-triangular parameters ``gamma[k, j]`` (k < j) in the closed
  unit disc.

The map runs through an upper-triangular unit factor ``G`` built column by
column from elementary 2x2 rotations ``[[g, s], [s, -conj(g)]]`` with
``s = sqrt(1 - |g|^2)`` (the defect of ``g``): ``S = D_L (G* G) D_L`` with
``D_L = diag(L)``.  Off-diagonal entries split as "known part determined by
shorter bands" plus "defect product times gamma[k, j]", so the inverse map
peels parameters band by band (|j - k| = 1, 2, ...), each band only dividing
by quantities fixed by strictly shorter bands.

Degenerate entries: when the divisor ``L_k L_j * (defect product)`` is
numerically zero, ``S_kj`` carries no information about ``gamma[k, j]``; the
parameter is stored as 0 with ``defined[k, j] = False`` and the entry is only
checked for consistency.  Reconstruction is insensitive to the convention
value because its coefficient is the vanished divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import CIRCLE_SNAP, DEFAULT_TOL, NotPSDError, Tolerance, hermitize, \
    maxnorm

__all__ = [
    "SchurParams",
    "forward",
    "cholesky_factor",
    "inverse",
    "det_from_params",
    "is_psd_via_params",
]


def defect(g: np.ndarray | complex) -> np.ndarray | float:
    """sqrt(1 - |g|^2), clipped at 0 for |g| rounded just above 1."""
    mod2 = np.abs(g) ** 2
    return np.sqrt(np.clip(1.0 - mod2, 0.0, None))


@dataclass
class SchurParams:
    """Diagonal factors plus unit-disc parameters of a PSD matrix.

    ``gamma`` and ``defined`` are full (d, d) arrays of which only the strict
    upper triangle is meaningful; everything else is fixed to 0 / False.
    """

    dim: int
    diag: np.ndarray
    gamma: np.ndarray
    defined: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.complex128)
        if self.defined is None:
            self.defined = np.triu(np.ones((self.dim, self.dim), dtype=bool), 1)
        self.defined = np.asarray(self.defined, dtype=bool)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        d = self.dim
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if self.diag.shape != (d,) or self.gamma.shape != (d, d) \
                or self.defined.shape != (d, d):
            raise ValueError("inconsistent shapes in SchurParams")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.gamma))):
            raise ValueError("non-finite entries in SchurParams")
        if np.any(self.diag < 0):
            raise ValueError("diagonal factors must be nonnegative")
        strict_upper = np.triu(np.ones((d, d), dtype=bool), 1)
        if np.any(self.gamma[~strict_upper] != 0):
            raise ValueError("gamma must be strictly upper triangular")
        if np.any(self.defined & ~strict_upper):
            raise ValueError("defined mask must be strictly upper triangular")
        if np.any(np.abs(self.gamma) > 1.0 + tol.abs_eps):
            raise ValueError("parameters must lie in the closed unit disc")
        if np.any((~self.defined) & strict_upper & (self.gamma != 0)):
            raise ValueError("masked parameters must carry the convention value 0")

    def copy(self) -> "SchurParams":
        return SchurParams(self.dim, self.diag.copy(), self.gamma.copy(),
                           self.defined.copy())


def _rotate_rows(m: np.ndarray, i: int, g: complex) -> None:
    """Left-multiply ``m`` in place by the elementary rotation acting on rows
    (i, i+1): new_i = g*row_i + s*row_{i+1}; new_{i+1} = s*row_i - conj(g)*row_{i+1}."""
    s = defect(g)
    top = m[i, :].copy()
    m[i, :] = g * top + s * m[i + 1, :]
    m[i + 1, :] = s * top - np.conj(g) * m[i + 1, :]


class _WindowTable:
    """Memoized scalar unitaries W[k, j] of the band recursion.

    ``window(k, j)`` is the (j-k+1)-square unitary obtained by applying the
    rotations of ``gamma[k, k+1..j]`` (outermost first) to ``window(k+1, j)``
    padded by one trailing identity row/column; ``window(k, k)`` is [[1]].
    It only reads ``gamma`` entries of bands <= j-k, so entries of a table
    built during band-by-band extraction stay valid as later bands fill in.
    """

    def __init__(self, gamma: np.ndarray):
        self._gamma = gamma
        self._memo: dict[tuple[int, int], np.ndarray] = {}

    def window(self, k: int, j: int) -> np.ndarray:
        key = (k, j)
        w = self._memo.get(key)
        if w is not None:
            return w
        n = j - k + 1
        if n == 1:
            w = np.eye(1, dtype=np.complex128)
        else:
            w = np.zeros((n, n), dtype=np.complex128)
            w[:n - 1, :n - 1] = self.window(k + 1, j)
            w[n - 1, n - 1] = 1.0
            for l in range(n - 1, 0, -1):
                _rotate_rows(w, l - 1, self._gamma[k, k + l])
        self._memo[key] = w
        return w


def _row_contraction(gamma: np.ndarray, k: int, j: int) -> np.ndarray:
    """Entries m = k+1..j of the row vector: prod of row defects then gamma[k, m]."""
    out = np.empty(j - k, dtype=np.complex128)
    acc = 1.0
    for i, m in enumerate(range(k + 1, j + 1)):
        out[i] = acc * gamma[k, m]
        acc *= defect(gamma[k, m])
    return out


def _col_contraction(gamma: np.ndarray, k: int, j: int) -> np.ndarray:
    """Entries m = j-1 down to k of the column vector: gamma[m, j] times the
    defects of the parameters below it in column j."""
    out = np.empty(j - k, dtype=np.complex128)
    acc = 1.0
    for i, m in enumerate(range(j - 1, k - 1, -1)):
        out[i] = gamma[m, j] * acc
        acc *= defect(gamma[m, j])
    return out


def cholesky_factor(params: SchurParams, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unit upper-triangular-by-construction factor G with
    ``diag(L) (G* G) diag(L) == forward(params)``.

    Column j stacks ``window(0, j-1) @ col_contraction(0, j)`` over the
    product of the defects in column j; G[0, 0] = 1.
    """
    params.validate(tol)
    d = params.dim
    gamma = params.gamma
    table = _WindowTable(gamma)
    g = np.zeros((d, d), dtype=np.complex128)
    g[0, 0] = 1.0
    for j in range(1, d):
        g[:j, j] = table.window(0, j - 1) @ _col_contraction(gamma, 0, j)
        g[j, j] = np.prod(defect(gamma[:j, j]))
    return g


def forward(params: SchurParams, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Synthesize the PSD matrix with the given parameters."""
    g = cholesky_factor(params, tol)
    su = g.conj().T @ g
    su = 0.5 * (su + su.conj().T)  # exact Hermitian symmetry
    l = params.diag
    return l[:, None] * su * l[None, :]


class _Bounds(NamedTuple):
    """Thresholds of one extraction, fixed by the input's max-norm."""

    tol: Tolerance
    scale: float

    @property
    def entry_tol(self) -> float:
        """Slack of a single matrix entry."""
        return self.tol.entry(self.scale)

    def degenerate(self, divisor: float | np.ndarray) -> bool | np.ndarray:
        """The divisor rule: the entry carries no information on its parameter."""
        return divisor <= self.tol.abs_eps * (1.0 + self.scale)


def _preamble(s: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, _Bounds]:
    """Hermitian average, diagonal factors ``L`` and thresholds of ``s``.

    Raises ``ValueError`` for empty or non-Hermitian input and
    :class:`NotPSDError` for a negative diagonal.
    """
    s = hermitize(s, tol)
    if s.shape[0] == 0:
        raise ValueError("empty matrix")
    bounds = _Bounds(tol, maxnorm(s))
    dvec = s.diagonal().real
    neg = int(np.argmin(dvec))
    if dvec[neg] < -bounds.entry_tol:
        raise NotPSDError("negative diagonal", entry=(neg, neg),
                          value=float(dvec[neg]))
    return s, np.sqrt(np.clip(dvec, 0.0, None)), bounds


def _disc_allowance(tol: Tolerance, scale: float, divisor: float) -> float:
    """How far |gamma| may exceed 1 before the matrix is rejected.

    An excess e at divisor q corresponds to an entry perturbation of e*q, so
    matching the eigenvalue-oracle threshold rel_eps*(1+scale) means allowing
    e up to rel_eps*(1+scale)/q (capped: a unit-size excess is never noise).
    """
    return max(tol.rel_eps, min(0.1, tol.rel_eps * (1.0 + scale) / divisor))


def _entry_step(entry: complex, known: complex, lk: float, lj: float, dprod: float,
                bounds: _Bounds) -> tuple[complex | None, tuple[str, float] | None]:
    """Extract gamma from ``entry = L_k L_j (known + dprod * gamma)``.

    Returns ``(gamma, failure)``: ``gamma`` is None when the divisor is
    degenerate (masked), else the value before clamping onto the circle;
    ``failure`` is None or the ``(reason, value)`` of the NotPSDError the
    entry proves.
    """
    ll = lk * lj
    divisor = ll * dprod
    if bounds.degenerate(divisor):
        resid = abs(entry - ll * known)
        if resid > bounds.entry_tol + divisor:
            return None, ("inconsistent degenerate entry", float(resid))
        return None, None
    val = complex((entry / ll - known) / dprod)
    mod = abs(val)
    if mod > 1.0 and mod - 1.0 > _disc_allowance(bounds.tol, bounds.scale, divisor):
        return val, ("parameter outside the unit disc", mod)
    return val, None


def inverse(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SchurParams:
    """Extract parameters of a Hermitian PSD matrix, band by band.

    Raises :class:`NotPSDError` (negative diagonal, parameter outside the
    unit disc, or inconsistent degenerate entry) when ``s`` is not PSD, and
    ``ValueError`` when it is not Hermitian.
    """
    s, lvec, bounds = _preamble(s, tol)
    d = s.shape[0]
    gamma = np.zeros((d, d), dtype=np.complex128)
    defined = np.zeros((d, d), dtype=bool)
    table = _WindowTable(gamma)

    for b in range(1, d):
        for k in range(d - b):
            j = k + b
            if b == 1:
                known = 0.0 + 0.0j
                dprod = 1.0
            else:
                known = (_row_contraction(gamma, k, j - 1)
                         @ table.window(k + 1, j - 1)
                         @ _col_contraction(gamma, k + 1, j))
                dprod = float(np.prod(defect(gamma[k, k + 1:j]))
                              * np.prod(defect(gamma[k + 1:j, j])))
            val, failure = _entry_step(s[k, j], known, lvec[k], lvec[j], dprod,
                                       bounds)
            if failure is not None:
                raise NotPSDError(failure[0], entry=(k, j), band=b,
                                  value=failure[1])
            if val is None:
                continue  # gamma stays 0, defined stays False
            mod = abs(val)
            gamma[k, j] = val / mod if mod > 1.0 else val
            defined[k, j] = True

    params = SchurParams(d, lvec, gamma, defined)
    params.validate(tol)
    return params


def _logdet(params: SchurParams) -> float:
    """log det S = sum log L_k^2 + sum log(1 - |gamma|^2) over defined gamma.

    -inf when some ``L_k`` vanishes or some disc factor is at or below
    ``CIRCLE_SNAP``.  Diagonal factors carry the input's scale and may be
    genuinely tiny; only the dimensionless disc factors get the snap.
    """
    diag_terms = params.diag ** 2
    disc_terms = 1.0 - np.abs(params.gamma[params.defined]) ** 2
    if np.any(diag_terms <= 0.0) or np.any(disc_terms <= CIRCLE_SNAP):
        return -math.inf
    return float(np.sum(np.log(np.concatenate([diag_terms, disc_terms]))))


def det_from_params(params: SchurParams) -> float:
    """det S as the product of diagonal squares and parameter defects.

    Evaluated as ``exp`` of the parameter log-det, so it is never negative,
    and exactly 0.0 for a singular matrix: a vanishing diagonal factor or a
    parameter on the unit circle at rounding resolution (``CIRCLE_SNAP``).
    Masked entries contribute a factor 1 (their convention value is 0)."""
    return float(np.exp(_logdet(params)))


def is_psd_via_params(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Positivity test through parameter extraction (no eigenvalues)."""
    try:
        inverse(s, tol)
    except NotPSDError:
        return False
    return True
