"""Contraction-parameter coordinates for PSD matrices.

A Hermitian PSD matrix ``S``, read as the Gram matrix of vectors x_0..x_{d-1},
is coordinatized by factors ``L_k = sqrt(S_kk)`` and strictly upper-triangular
parameters ``gamma[k, j]`` in the closed unit disc: the partial correlation of
x_k and x_j given x_{k+1..j-1} (a D-vine); ``S = D_L (G* G) D_L`` with
``D_L = diag(L)`` and ``G`` upper triangular.

One band lattice (Levinson/Schur recursion) treats every window [k, k+b] of a
band at once.  It carries the residual rows ``f[k]`` of x_k and ``g[k+b]`` of
x_{k+b} given x_{k+1..k+b-1}, and products ``dl[k]``, ``dr[k+b]`` of the defects
``sqrt(1 - |gamma|^2)`` along the window's row and column.  Each conditioning
step scales a residual variance by ``1 - |gamma|^2``, so the residuals'
covariance ``a`` is gamma times ``L_k L_j dl[k] dr[j]``, the divisor of the
entry expansion.  ``f -= (a / var_g) g``, ``g -= (conj(a) / var_f) f`` moves
every window one step out.  Synthesis carries coefficient rows and sets ``S_kj
= gamma * divisor - f[k] . S[:, j]`` while ``S_kj`` is 0; extraction also
carries the rows times ``S`` (the Schur form, accurate on ill-conditioned
input) and reads ``a`` off an entry.  Finally ``g[j]`` is x_j's residual given
x_0..x_{j-1}, which yields ``G``.  O(d^3) time and O(d^2) memory in all.

Degenerate entries: when the divisor is numerically zero, ``S_kj`` carries no
information about ``gamma[k, j]``; the parameter is stored as 0 with
``defined[k, j] = False``, the entry is only checked for consistency, and
extraction goes on with its covariance removed, so reconstruction does not
depend on the convention value (its coefficient is the vanished divisor).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import CIRCLE_SNAP, DEFAULT_TOL, NotPSDError, hermitize, maxnorm

__all__ = [
    "SchurParams",
    "forward",
    "cholesky_factor",
    "inverse",
    "det_from_params",
    "is_psd_via_params",
]


@functools.lru_cache(maxsize=16)
def _lower(d: int) -> np.ndarray:
    """Read-only mask of the lower triangle, diagonal included, of a (d, d) array."""
    lower = np.tri(d, dtype=bool)
    lower.flags.writeable = False
    return lower


def defect(g: np.ndarray | complex) -> np.ndarray | float:
    """sqrt(1 - |g|^2), clipped at 0 for |g| rounded just above 1."""
    mod2 = np.abs(g) ** 2
    return np.sqrt(np.maximum(1.0 - mod2, 0.0))


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

    def validate(self) -> None:
        d = self.dim
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if self.diag.shape != (d,) or self.gamma.shape != (d, d) \
                or self.defined.shape != (d, d):
            raise ValueError("inconsistent shapes in SchurParams")
        if np.count_nonzero(np.isfinite(self.diag)) < d \
                or np.count_nonzero(np.isfinite(self.gamma)) < d * d:
            raise ValueError("non-finite entries in SchurParams")
        if np.count_nonzero(self.diag < 0):
            raise ValueError("diagonal factors must be nonnegative")
        lower = _lower(d)
        if np.count_nonzero(self.gamma[lower]):
            raise ValueError("gamma must be strictly upper triangular")
        if np.count_nonzero(self.defined & lower):
            raise ValueError("defined mask must be strictly upper triangular")
        if np.count_nonzero(np.abs(self.gamma) > 1.0 + DEFAULT_TOL.abs_eps):
            raise ValueError("parameters must lie in the closed unit disc")
        if np.count_nonzero(self.gamma[~self.defined]):
            raise ValueError("masked parameters must carry the convention value 0")

    def copy(self) -> "SchurParams":
        return SchurParams(self.dim, self.diag.copy(), self.gamma.copy(),
                           self.defined.copy())


def _degenerate(divisor: float | np.ndarray, scale: float) -> bool | np.ndarray:
    """The divisor rule, at input max-norm ``scale``: the entry carries no
    information on its parameter."""
    return divisor <= DEFAULT_TOL.abs_eps * (1.0 + scale)


def _preamble(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Hermitian average, diagonal factors ``L`` and max-norm of ``s``.

    Raises ``ValueError`` for empty or non-Hermitian input and
    :class:`NotPSDError` for a negative diagonal.
    """
    s = hermitize(s)
    if s.shape[0] == 0:
        raise ValueError("empty matrix")
    scale = maxnorm(s)
    dvec = s.diagonal().real
    neg = int(np.argmin(dvec))
    if dvec[neg] < -DEFAULT_TOL.entry(scale):
        raise NotPSDError("negative diagonal", entry=(neg, neg),
                          value=float(dvec[neg]))
    return s, np.sqrt(np.maximum(dvec, 0.0)), scale


def _disc_allowance(scale: float, divisor):
    """How far |gamma| may exceed 1 before the matrix is rejected.

    An excess e at divisor q corresponds to an entry perturbation of e*q, so
    matching the eigenvalue-oracle threshold rel_eps*(1+scale) means allowing
    e up to rel_eps*(1+scale)/q (capped: a unit-size excess is never noise).
    """
    with np.errstate(divide="ignore"):
        return np.maximum(DEFAULT_TOL.rel_eps,
                          np.minimum(0.1, DEFAULT_TOL.rel_eps * (1.0 + scale) / divisor))


def _entry_step(entry, known, ll, dprod, scale: float):
    """Extract gamma from ``entry = ll (known + dprod * gamma)``, elementwise:
    ``(val, masked, failure)``, with ``val`` before clamping onto the circle (0
    where ``masked`` flags a degenerate divisor) and ``failure`` None or
    ``(i, reason, value)`` for the first flat index proving a NotPSDError."""
    divisor = ll * dprod
    masked = _degenerate(divisor, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(masked, 0.0, (entry / ll - known) / dprod)
    mod, resid = np.abs(val), np.abs(entry - ll * known)
    inconsistent = masked & (resid > DEFAULT_TOL.entry(scale) + divisor)
    outside = mod > 1.0
    if np.count_nonzero(outside):
        outside &= mod - 1.0 > _disc_allowance(scale, divisor)
    bad = np.ravel(inconsistent | outside)
    if not np.count_nonzero(bad):
        return val, masked, None
    i = int(np.argmax(bad))
    if np.ravel(inconsistent)[i]:
        return val, masked, (i, "inconsistent degenerate entry",
                             float(np.ravel(resid)[i]))
    return val, masked, (i, "parameter outside the unit disc", float(np.ravel(mod)[i]))


class _Lattice:
    """Before band b, ``f[k]``, ``g[k+b]`` are window [k, k+b]'s residual rows.

    The lattice takes over ``rows``: the identity gives coefficient rows,
    ``[S | I]`` covariances with every x_l followed by coefficients (so
    ``f[k, k+b]`` is the window's covariance).  One linear update serves both.
    """

    def __init__(self, lvec: np.ndarray, rows: np.ndarray):
        self.lvec, self.f, self.g = lvec, rows, rows.copy()
        self.dl, self.dr = np.ones(lvec.shape[0]), np.ones(lvec.shape[0])

    def divisor(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(L_k L_{k+b}, dprod, divisor)`` of every window of band b."""
        ll, dprod = self.lvec[:-b] * self.lvec[b:], self.dl[:-b] * self.dr[b:]
        return ll, dprod, ll * dprod

    def absorb(self, b: int, gam: np.ndarray, dg: np.ndarray, divisor: np.ndarray) -> None:
        """Move every window of band b one step out, past its parameter ``gam``
        of defect ``dg``.  A window of zero divisor has a zero-variance
        residual: its rows stay."""
        n = gam.shape[0]
        sl, sr = self.lvec[:n] * self.dl[:n], self.lvec[b:] * self.dr[b:]  # sd(f), sd(g)
        live = divisor > 0.0
        if np.count_nonzero(live) < n:
            gam, sl, sr = np.where(live, gam, 0.0), np.where(live, sl, 1.0), \
                np.where(live, sr, 1.0)
        cf, cg = gam * (sl / sr), np.conj(gam) * (sr / sl)
        f, g = self.f[:n], self.g[b:]
        f_out = f - cf[:, None] * g
        g -= cg[:, None] * f
        f[...] = f_out
        self.dl[:n] *= dg
        self.dr[b:] *= dg


def _band_diagonal(m: np.ndarray, b: int) -> np.ndarray:
    """Writable view of the entries ``m[k, k+b]`` of a contiguous (d, n) array."""
    d, n = m.shape
    return m.reshape(-1)[b::n + 1][:d - b]


def _synthesize(params: SchurParams) -> tuple[np.ndarray, _Lattice]:
    """Upper triangle of the matrix of ``params`` and the final coefficient lattice."""
    params.validate()
    d, lvec = params.dim, params.diag
    s = np.diag((lvec * lvec).astype(np.complex128))
    lat = _Lattice(lvec, np.eye(d, dtype=np.complex128))
    for b in range(1, d):
        _, _, divisor = lat.divisor(b)
        gam = params.gamma.diagonal(b)
        # f[k] . S[:, k+b] while S[k, k+b] is still 0: the projected part.
        known = np.einsum("ki,ik->k", lat.f[:d - b], s[:, b:])  # reads the upper part
        _band_diagonal(s, b)[:] = gam * divisor - known
        lat.absorb(b, gam, defect(gam), divisor)
    return s, lat


def _factor(bs: np.ndarray, lvec: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """G of :func:`cholesky_factor` from ``(B S)[j, l]``, l >= j, of the final
    lattice (coefficient rows B) and its column defect products ``dr``."""
    scale = (lvec * dr)[:, None] * lvec
    g = np.triu(np.divide(bs, scale, out=np.zeros_like(bs), where=scale > 0.0), 1)
    _band_diagonal(g, 0)[:] = dr
    return g


def cholesky_factor(params: SchurParams) -> np.ndarray:
    """Upper-triangular G with ``diag(L) (G* G) diag(L) == forward(params)``.

    ``G[j, j]`` is column j's defect product.  Above it, row j holds the
    covariances of x_j's residual given x_0..x_{j-1} over its standard
    deviation and ``L_l``, or 0 where either vanishes (a zero pivot row)."""
    s, lat = _synthesize(params)  # (B S)[j, l] for l >= j reads only the upper part
    return _factor(lat.g @ s, params.diag, lat.dr)


def forward(params: SchurParams) -> np.ndarray:
    """Synthesize the PSD matrix with the given parameters."""
    s = _synthesize(params)[0]
    return s + np.triu(s, 1).conj().T


def inverse(s: np.ndarray) -> SchurParams:
    """Extract parameters of a Hermitian PSD matrix, band by band.

    Raises :class:`NotPSDError` (negative diagonal, parameter outside the
    unit disc, or inconsistent degenerate entry) when ``s`` is not PSD, and
    ``ValueError`` when it is not Hermitian.
    """
    return _extract(s)[1]


def _extract(s: np.ndarray) -> tuple[np.ndarray, SchurParams, _Lattice]:
    """:func:`inverse`, also returning the Hermitian average of ``s`` and the
    ``[S | I]`` lattice with every band absorbed but the last."""
    s, lvec, scale = _preamble(s)
    d = s.shape[0]
    gamma, defined = np.zeros((d, d), dtype=np.complex128), ~_lower(d)
    lat = _Lattice(lvec, np.concatenate((s, np.eye(d, dtype=np.complex128)), axis=1))
    cov_flat, gamma_flat = lat.f.reshape(-1), gamma.reshape(-1)
    for b in range(1, d):
        ll, dprod, divisor = lat.divisor(b)
        cov = cov_flat[b::2 * d + 1][:d - b]
        # Plain division unless some entry needs _entry_step's mask, clamp or
        # failure: the same floating-point operations, far fewer calls.
        plain = not np.count_nonzero(_degenerate(divisor, scale))
        if plain:
            val = cov / ll / dprod
            mod = np.abs(val)
            plain = not np.count_nonzero(mod > 1.0)
        if plain:
            gam, dg = val, np.sqrt(1.0 - mod * mod)
        else:
            val, masked, failure = _entry_step(cov, 0.0, ll, dprod, scale)
            if failure is not None:
                k, reason, value = failure
                raise NotPSDError(reason, entry=(k, k + b), band=b, value=value)
            if np.count_nonzero(masked):  # go on from S minus the masked covariances
                k, a = np.flatnonzero(masked), cov[masked]
                for rows in (lat.f, lat.g):
                    rows[:, k + b] -= rows[:, d + k] * a
                    rows[:, k] -= rows[:, d + k + b] * np.conj(a)
                defined[k, k + b] = False
            mod = np.abs(val)
            gam = np.divide(val, mod, out=val, where=mod > 1.0)  # clamp onto the circle
            dg = defect(gam)
        gamma_flat[b::d + 1][:d - b] = gam
        if b < d - 1:
            lat.absorb(b, gam, dg, divisor)
    params = SchurParams(d, lvec, gamma, defined)
    params.validate()
    return s, params, lat


def _read_factor(params: SchurParams, lat: _Lattice) -> np.ndarray:
    """:func:`cholesky_factor` of ``params`` read off the lattice that
    :func:`_extract` returned with them: absorbs the last band, then divides
    ``(B S)`` as :func:`cholesky_factor` divides its synthesized one."""
    d = params.dim
    if d > 1:
        gam = params.gamma[0, d - 1:]
        lat.absorb(d - 1, gam, defect(gam), lat.divisor(d - 1)[2])
    return _factor(lat.g[:, :d], params.diag, lat.dr)


def _logdet(params: SchurParams) -> float:
    """log det S = sum log L_k^2 + sum log(1 - |gamma|^2) over defined gamma.

    -inf when some ``L_k`` vanishes or some disc factor is at or below
    ``CIRCLE_SNAP``.  Diagonal factors carry the input's scale and may be
    genuinely tiny; only the dimensionless disc factors get the snap.
    """
    diag_terms = params.diag ** 2
    disc_terms = 1.0 - np.abs(params.gamma[params.defined]) ** 2
    if np.count_nonzero(diag_terms <= 0.0) or np.count_nonzero(disc_terms <= CIRCLE_SNAP):
        return -math.inf
    return float(np.add.reduce(np.log(np.concatenate((diag_terms, disc_terms)))))


def det_from_params(params: SchurParams) -> float:
    """det S as the product of diagonal squares and parameter defects.

    Evaluated as ``exp`` of the parameter log-det, so it is never negative,
    and exactly 0.0 for a singular matrix: a vanishing diagonal factor or a
    parameter on the unit circle at rounding resolution (``CIRCLE_SNAP``).
    Masked entries contribute a factor 1 (their convention value is 0)."""
    return float(np.exp(_logdet(params)))


def is_psd_via_params(s: np.ndarray) -> bool:
    """Positivity test through parameter extraction (no eigenvalues)."""
    try:
        inverse(s)
    except NotPSDError:
        return False
    return True
