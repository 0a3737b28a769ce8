"""Contraction-parameter coordinates for PSD matrices.

A Hermitian PSD matrix ``S``, read as the Gram matrix of vectors x_0..x_{d-1},
is coordinatized by factors ``L_k = sqrt(S_kk)`` and strictly upper-triangular
parameters ``gamma[k, j]`` in the closed unit disc: the partial correlation of
x_k and x_j given x_{k+1..j-1} (a D-vine); ``S = D_L (G* G) D_L`` with
``D_L = diag(L)`` and ``G`` upper triangular.

One band lattice (Levinson/Schur recursion) treats every window [k, k+b] of a
band at once.  It carries the residual rows ``f[k]`` of x_k and ``g[k+b]`` of
x_{k+b} given x_{k+1..k+b-1}, and their standard deviations ``sl[k]``,
``sr[k+b]``: ``L_k`` and ``L_{k+b}`` (1 in extraction, below) times the
defects ``sqrt(1 - |gamma|^2)`` along the window's row and column, so the
residuals' covariance ``a`` is gamma times the divisor ``sl[k] sr[j]``.
``f -= (a / var_g) g``, ``g -= (conj(a) / var_f) f`` moves every window one
step out.  Synthesis carries coefficient rows and sets
``S_kj = gamma * divisor - f[k] . S[:, j]`` while ``S_kj`` is 0; it knows every
parameter up front, so it reads every window's defect products, divisor and
update coefficients off them at once, and its band loop only writes entries
and updates rows.  Extraction learns a band's parameters only when it reaches
it: :class:`_Lattice` carries the rows times ``S`` (the Schur form, accurate
on ill-conditioned input) and the standard deviations, and reads ``a`` off an
entry.  Finally ``g[j]`` is x_j's residual given x_0..x_{j-1}, which yields
``G``.  O(d^3) time and O(d^2) memory in all.  A :class:`SchurParams` is
immutable and keeps its synthesis, so :func:`forward` and
:func:`cholesky_factor` on one parameter set synthesize once.

Parameters are partial correlations, the same for ``S`` and ``D S D`` (D a
positive diagonal), so both extraction routes run on the unit-diagonal
matrix ``S_kj / (L_k L_j)`` (:func:`_preamble`): every threshold is
dimensionless.  Degenerate entries: when the divisor is numerically zero
(always through a zero diagonal), ``S_kj`` carries no information about
``gamma[k, j]``; the parameter is stored as 0 with ``defined[k, j] = False``,
the entry is only checked for consistency, and extraction goes on with its
covariance removed, so reconstruction does not depend on the convention value
(its coefficient is the vanished divisor).  One step, ``_entry_step``, masks,
rejects and clamps every band of the extraction (and every entry of the qubit
normal form's closed forms).  A masked window does not move the lattice (its
parameter is 0, its defect 1), and a band of zero parameters skips the
update.  Past band r of a generic rank-r input every window is masked (a dead
band), so extraction and synthesis update their rows for bands 1..r only.  A
dead band moves no standard deviation, so from it on every divisor is known:
when all are degenerate (a dead tail), extraction checks the tail in one step.

The removal writes only what a later read needs.  After band b, ``f[i]`` is
read only at columns >= i+b+1 (later covariances) and ``g[j]`` only at
columns >= j+1 (later updates, and the strict upper triangle that yields
``G``); an update mixes ``f[i]`` with ``g[i+b]``, so the read set persists.
Removing window [k, k+b]'s covariance subtracts it times x_k's coefficient
from column k+b (rows ``f[i]``, i <= k, and ``g``), and its conjugate times
x_{k+b}'s coefficient from column k.  Only rows ``f[i]``, i > k, and
``g[j]``, j >= k+b, carry x_{k+b}, so the column-k write lands left of every
later read: a dead store, not made.  Zero signs carry no information: a
skipped update or dead store can flip the sign of a zero, in the lattice
and in a parameter read off an exactly-zero covariance.

Only these removals read coefficients, so extraction carries the ``S`` rows
alone and logs its updates; when a removal first needs them, it replays the
log on the identity and appends the coefficient rows, as ``[S | I]`` would
carry them (the update is elementwise per column).  Input with no masked
window never pays for them.  In a dead tail no update runs, so ``g`` is read
only by :func:`_read_factor`, which makes the tail's removals from ``g``.
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


@dataclass(frozen=True, eq=False)
class SchurParams:
    """Diagonal factors plus unit-disc parameters of a PSD matrix.

    ``gamma`` and ``defined`` are full (d, d) arrays of which only the strict
    upper triangle is meaningful; everything else is fixed to 0 / False.
    An immutable value: construction copies the arrays, marks the copies
    read-only and validates them, and the synthesis (:func:`_synthesize`)
    is kept for the object's lifetime.  Compares by identity.
    """

    dim: int
    diag: np.ndarray
    gamma: np.ndarray
    defined: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        d = self.dim
        arrays = {"diag": np.array(self.diag, dtype=np.float64),
                  "gamma": np.array(self.gamma, dtype=np.complex128),
                  "defined": np.triu(np.ones((max(d, 0),) * 2, dtype=bool), 1)
                  if self.defined is None  # a bad dim is validate's to report
                  else np.array(self.defined, dtype=bool)}
        for name, a in arrays.items():  # own, read-only copies
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        self.validate()

    _synthesis = functools.cached_property(lambda self: _synthesize(self))

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


_ENTRY_EPS = DEFAULT_TOL.entry(1.0)  # the entry slack at scale 1
_INCONSISTENT = "inconsistent degenerate entry"
_SQRT_SNAP = math.sqrt(CIRCLE_SNAP)


def _zero_diagonal(lvec: np.ndarray, carries: np.ndarray | None = None) -> np.ndarray:
    """The zero-diagonal rule: diagonal k is zero when ``L_k^2 <= CIRCLE_SNAP *
    max L^2`` and row k carries nothing (``carries[k]`` False): no window
    carrying information in a matrix (:func:`_zero_rows`), no defined
    parameter in its extraction.  Without ``carries``, the rows below the
    threshold."""
    below = lvec <= _SQRT_SNAP * lvec.max()
    return below if carries is None else below & ~carries


def _degenerate(divisor: float | np.ndarray) -> bool | np.ndarray:
    """The divisor rule: the entry carries no information on its parameter."""
    return divisor <= DEFAULT_TOL.abs_eps * 2.0


def _zero_rows(s: np.ndarray, lvec: np.ndarray, scale: float):
    """The zero-diagonal rule on ``s`` (upper triangle) of factors ``lvec``,
    max-norm ``scale``: the zero rows, and the rows and columns (band-major)
    of the windows through a row below the threshold whose entry is past
    the entry slack plus ``L_k L_j`` (inconsistent).  A window carries
    information when its entry and ``L_k L_j`` are both past ``abs_eps (1 +
    scale)``, the divisor rule's threshold on the input's scale: masking a
    zero row drops no more of a PSD matrix than that rule would."""
    eps, tiny = DEFAULT_TOL.entry(scale), DEFAULT_TOL.abs_eps * (1.0 + scale)
    k, j = _tail_windows(len(s), 0)
    mod, ll = np.abs(s[k, j]), lvec[k] * lvec[j]
    below = _zero_diagonal(lvec)
    bad = (below[k] | below[j]) & (mod > eps + ll)
    over = (mod > tiny) & (ll > tiny) & ~bad
    carries = np.zeros(len(s), dtype=bool)
    carries[k[over]] = carries[j[over]] = True
    return _zero_diagonal(lvec, carries), k[bad], j[bad]


def _preamble(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian average of ``s``, its factors ``L``, the unit-diagonal matrix
    ``s_kj / (L_k L_j)`` and its unit factors (0 on a zero diagonal, where the
    matrix is 0 too).  Raises ``ValueError`` for empty or non-Hermitian input,
    :class:`NotPSDError` for a negative diagonal or, first in (band, row)
    order, an inconsistent entry of :func:`_zero_rows`."""
    s = hermitize(s)
    if s.shape[0] == 0:
        raise ValueError("empty matrix")
    dvec = s.diagonal().real
    lvec = np.sqrt(np.maximum(dvec, 0.0))
    ll = lvec[:, None] * lvec
    if not np.count_nonzero(_zero_diagonal(lvec)):  # so no diagonal is zero or negative
        return s, lvec, s / ll, np.ones(len(s))
    scale, neg = maxnorm(s), int(dvec.argmin())
    if dvec[neg] < -DEFAULT_TOL.entry(scale):
        raise NotPSDError("negative diagonal", entry=(neg, neg), value=float(dvec[neg]))
    zero, k, j = _zero_rows(s, lvec, scale)
    if k.size:
        k, j = int(k[0]), int(j[0])
        raise NotPSDError(_INCONSISTENT, entry=(k, j), band=j - k, value=float(abs(s[k, j])))
    dead = zero[:, None] | zero
    s1 = np.divide(s, ll, out=np.zeros_like(s), where=~dead)
    return s, lvec, s1, np.where(zero, 0.0, 1.0)


def _disc_allowance(divisor):
    """How far |gamma| may exceed 1: an excess e at divisor q is an entry
    perturbation of e*q, so the eigenvalue-oracle threshold ``rel_eps * 2``
    allows e up to ``rel_eps * 2 / q`` (capped: a unit excess is never noise)."""
    ratio = np.divide(DEFAULT_TOL.rel_eps * 2.0, divisor, out=np.full(np.shape(divisor), np.inf),
                      where=divisor != 0.0)
    return np.maximum(DEFAULT_TOL.rel_eps, np.minimum(0.1, ratio))


def _entry_step(cov, divisor):
    """Extract gamma from covariances ``cov = divisor * gamma``, elementwise:
    ``(val, gam, dg, masked, failure)``.  ``val`` is the ratio before clamping
    (0 where ``masked`` flags a degenerate divisor), ``gam`` is it clamped onto
    the circle, ``dg`` the defects of ``gam``, and ``failure`` None or ``(i,
    reason, value)`` for the first flat index proving a NotPSDError: a masked
    residual past the entry slack plus its divisor, or a ratio past the disc
    allowance."""
    masked = _degenerate(divisor)
    inconsistent = None
    if np.count_nonzero(masked):
        val = np.divide(cov, divisor, out=np.zeros_like(cov, dtype=np.complex128),
                        where=np.logical_not(masked))
        resid = np.abs(cov)
        inconsistent = masked & (resid > _ENTRY_EPS + divisor)
    else:
        val = cov / divisor
    mod = np.abs(val)
    clamp = mod > 1.0
    if not np.count_nonzero(clamp) and (inconsistent is None
                                        or not np.count_nonzero(inconsistent)):
        return val, val, np.sqrt(1.0 - mod * mod), masked, None
    outside = clamp & (mod - 1.0 > _disc_allowance(divisor))
    gam = np.divide(val, mod, out=np.array(val), where=clamp)
    bad = np.ravel(outside if inconsistent is None else inconsistent | outside)
    failure = None
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        if inconsistent is not None and np.ravel(inconsistent)[i]:
            failure = (i, _INCONSISTENT, float(np.ravel(resid)[i]))
        else:
            failure = (i, "parameter outside the unit disc", float(np.ravel(mod)[i]))
    return val, gam, defect(gam), masked, failure


def _rejection(reason: str, k: int, j: int, value: float, lvec: np.ndarray) -> NotPSDError:
    """Window [k, j]'s rejection, a masked entry's residual times ``L_k L_j``."""
    value *= float(lvec[k] * lvec[j]) if reason == _INCONSISTENT else 1.0
    return NotPSDError(reason, entry=(k, j), band=j - k, value=value)


class _Lattice:
    """Before band b, ``f[k]``, ``g[k+b]`` are window [k, k+b]'s residual rows.

    Extraction's lattice.  It takes over ``rows``, ``S`` (unit-diagonal):
    covariances with every x_l (so ``f[k, k+b]`` is the window's covariance),
    and the standard deviations ``sl[k]``, ``sr[k+b]`` of those rows'
    residuals, from ``unit`` on: ``sl[k] sr[k+b]`` is the window's divisor.
    Every update is logged until :meth:`widen` replays the log on the
    identity and appends its coefficient rows: ``[S | I]``, every x_l
    followed by coefficients.  One linear update serves both.  ``tail`` is
    the first band of a dead tail whose removals from ``g`` are pending
    (:func:`_dead_tail`), or None."""

    def __init__(self, unit: np.ndarray, rows: np.ndarray):
        self.unit, self.f, self.g = unit, rows, rows.copy()
        self.sl, self.sr = unit.copy(), unit.copy()
        self.log, self.tail = [], None

    def absorb(self, b: int, gam: np.ndarray, dg: np.ndarray, live: np.ndarray) -> None:
        """Move every window of band b one step out, past its parameter ``gam``
        of defect ``dg``, and scale ``sl``, ``sr`` by ``dg``.  The rows of a
        window that is not ``live`` (a zero-variance residual, whose
        parameter is 0) stay.  A band of zero parameters moves no value
        (``sl * 1 == sl``) and is skipped."""
        if not np.count_nonzero(gam):
            return
        n = gam.shape[0]
        sl, sr = self.sl[:n], self.sr[b:]
        if np.count_nonzero(live) < n:
            r = np.divide(sl, sr, out=np.ones(n), where=live)
        else:
            r = sl / sr
        cf, cg = gam * r, np.conj(gam) / r
        if self.log is not None:
            self.log.append((b, cf, cg))
        _update(self.f[:n], self.g[b:], cf, cg)
        sl *= dg
        sr *= dg

    def widen(self) -> None:
        """Append the coefficient rows, once: the logged updates replayed, in
        order, on the identity.  Before band b, f[k] and g[k+b] have
        coefficients only on x_k..x_{k+b-1} and x_{k+1}..x_{k+b}, and the
        update is elementwise per column, so the replay moves x_k..x_{k+b}
        alone (the other coefficients stay +0, as they do in an ``[S | I]``
        lattice) and gives exactly the rows that lattice would carry."""
        if self.log is None:
            return
        d = self.unit.shape[0]
        eye = np.eye(d, dtype=np.complex128)
        self.f, self.g = np.concatenate((self.f, eye), axis=1), \
            np.concatenate((self.g, eye), axis=1)
        for b, cf, cg in self.log:
            n = d - b
            _update(_skew(self.f, 0, d, n, b + 1), _skew(self.g, b, d, n, b + 1), cf, cg)
        self.log = None


def _update(f: np.ndarray, g: np.ndarray, cf: np.ndarray, cg: np.ndarray) -> None:
    """``f -= cf g``, ``g -= cg f`` row by row, both from the rows as given."""
    cf_g = cf[:, None] * g
    g -= cg[:, None] * f
    f -= cf_g


def _skew(m: np.ndarray, row: int, col: int, n: int, w: int) -> np.ndarray:
    """Writable (n, w) view ``v[k, i] = m[row+k, col+k+i]`` of a C-contiguous
    array; the caller keeps it inside ``m``."""
    s0, s1 = m.strides
    return np.ndarray((n, w), m.dtype, buffer=m, offset=row * s0 + col * s1,
                      strides=(s0 + s1, s1))


def _band_diagonal(m: np.ndarray, b: int) -> np.ndarray:
    """Writable view of the entries ``m[k, k+b]`` of a contiguous (d, n) array."""
    d, n = m.shape
    return m.reshape(-1)[b::n + 1][:d - b]


def _synthesize(params: SchurParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper triangle of the matrix of ``params``, and the coefficient rows
    ``g`` and column defect products ``dr`` of the final lattice.  Read it
    as ``params._synthesis``, which keeps it; callers must not write into
    it.

    Every parameter is known up front, and so are the lattice's defect
    products: before band b, ``dl[k]`` is the product of the defects of
    ``gamma[k, k+1..k+b-1]`` and ``dr[j]`` that of ``gamma[j-1..j-b+1, j]``,
    in band order (a masked, zero or skipped parameter has defect 1.0).
    Running products along each row, and up each column from the bottom,
    multiply in that order.  So they give every window's products, divisor
    and update coefficients at once, bit for bit as a band step over these
    products computes them.  Those arrays are indexed [k, j-1] for window
    [k, j]: band b is their diagonal b-1.  The band loop only writes the
    entries and updates the rows."""
    d, lvec, gamma = params.dim, params.diag, params.gamma
    n = d - 1
    dgs = defect(gamma)
    cols = np.cumprod(dgs[::-1], axis=0)[::-1]  # cols[i, j]: rows i.. of column j
    dl, dr, dr_final = np.cumprod(dgs, axis=1)[:n, :n], cols[1:, 1:], cols[0].copy()
    sl, sr = lvec[:n, None] * dl, lvec[1:] * dr  # sd(f[k]), sd(g[j])
    divisor = lvec[:n, None] * lvec[1:]
    divisor *= np.multiply(dl, dr, out=dl)
    del dgs, cols, dl, dr
    gam = gamma[:n, 1:]
    target = gam * divisor
    # coef[k, j] = cf and coef[j, k] = cg of window [k, j]; the rows of a
    # window with a zero-variance residual stay (coefficients +0)
    coef, live = np.zeros((d, d), dtype=np.complex128), (divisor > 0.0) & _lower(n).T
    np.multiply(gam, np.divide(sl, sr, out=divisor, where=live),
                out=coef[:n, 1:], where=live)
    np.multiply(np.conj(gam), np.divide(sr, sl, out=sr, where=live),
                out=coef[1:, :n].T, where=live)
    del sl, sr, divisor, live, gam  # before the rows exist: a lower peak
    s = np.diag((lvec * lvec).astype(np.complex128))
    f = np.eye(d, dtype=np.complex128)
    g = f.copy()
    for b in range(1, d):
        # f[k] . S[:, k+b] while S[k, k+b] is still 0: the projected part.
        known = np.einsum("ki,ik->k", f[:d - b], s[:, b:])  # reads the upper part
        _band_diagonal(s, b)[:] = target.diagonal(b - 1) - known
        if np.count_nonzero(gamma.diagonal(b)):
            _update(f[:d - b], g[b:], coef.diagonal(b), coef.diagonal(-b))
    return s, g, dr_final


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
    s, g, dr = params._synthesis  # (B S)[j, l] for l >= j reads only the upper part
    return _factor(g @ s, params.diag, dr)


def forward(params: SchurParams) -> np.ndarray:
    """Synthesize the PSD matrix with the given parameters."""
    s = params._synthesis[0]
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
    lattice with every band absorbed but the last.  Only its read set
    (module docstring) is exact: masked covariances are not removed from
    the columns left of it, and a dead tail's removals from ``g`` are
    pending until :func:`_read_factor`."""
    s, lvec, s1, unit = _preamble(s)
    d = s.shape[0]
    gamma, defined = np.zeros((d, d), dtype=np.complex128), ~_lower(d)
    lat = _Lattice(unit, s1)
    gamma_flat = gamma.reshape(-1)
    for b in range(1, d):
        cov = _band_diagonal(lat.f, b)
        divisor = lat.sl[:d - b] * lat.sr[b:]
        _, gam, dg, masked, failure = _entry_step(cov, divisor)
        if failure is not None:
            k, reason, value = failure
            raise _rejection(reason, k, k + b, value, lvec)
        gamma_flat[b::d + 1][:d - b] = gam
        nmasked = np.count_nonzero(masked)
        if nmasked == d - b and _dead_tail(lat, b, defined, lvec):
            break
        if nmasked:  # go on from S minus the masked covariances
            lat.widen()
            n, a = d - b, np.where(masked, cov, 0.0)
            lat.f[:n, b:d] -= lat.f[:n, d:d + n] * a
            lat.g[:, b:d] -= lat.g[:, d:d + n] * a
            _band_diagonal(defined, b)[:] = ~masked
        if b < d - 1:
            lat.absorb(b, gam, dg, ~masked)
    return s, SchurParams(d, lvec, gamma, defined), lat


def _tail_windows(d: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows k and columns j of the windows past band b, band-major."""
    # row m of the flipped lower triangle is k < d-b-1-m: the windows of band b+1+m
    m, k = np.nonzero(_lower(d - b - 1)[::-1])
    return k, k + m + (b + 1)


def _dead_tail(lat: _Lattice, b: int, defined: np.ndarray, lvec: np.ndarray) -> bool:
    """Band b is dead: if every later band is dead too, extract them at once
    and leave the removals of bands b.. from ``g`` pending.

    A dead band moves no ``sl``, ``sr``, so one test says whether each
    window past b is masked; if one is live, return False.  Otherwise every
    parameter from band b on is a masked 0, and the band loop would only
    remove each band's covariances from ``f`` (later bands read them) and ``g``.
    Window [k, j]'s covariance reaches ``f[i, j]``, i < k, through x_k's
    coefficient, so removing row k of the tail from the rows above it,
    bottom row first, leaves every covariance as the band loop reads it.
    One step checks them all, and its first failure in band order is the
    band loop's (``lvec``: :func:`_rejection`).  Only :func:`_read_factor`
    reads ``g``; it makes the removals from ``g``, in the same order."""
    d = lat.unit.shape[0]
    if b < d - 1:
        k, j = _tail_windows(d, b)
        divisor = lat.sl[k] * lat.sr[j]
        if np.count_nonzero(_degenerate(divisor)) < k.shape[0]:
            return False
        lat.widen()
        f = lat.f
        for i in range(d - b - 1, 0, -1):  # f[i:i+1], not f[i]: numpy rounds
            # a (1, 1) by (1,) product apart from the band loop's (n, n) by (n,)
            f[:i, i + b:d] -= f[:i, d + i, None] * f[i:i + 1, i + b:d]
        failure = _entry_step(f[k, j], divisor)[4]
        if failure is not None:
            i, reason, value = failure
            raise _rejection(reason, int(k[i]), int(j[i]), value, lvec)
        defined[k, j] = False
    _band_diagonal(defined, b)[:] = False
    lat.tail = b
    return True


def _read_factor(params: SchurParams, lat: _Lattice) -> np.ndarray:
    """:func:`cholesky_factor` of ``params`` read off the lattice that
    :func:`_extract` returned with them: makes a dead tail's pending removals
    from ``g`` in band order and absorbs the last band, then divides ``(B S)``
    as :func:`cholesky_factor` does, with unit factors for ``L`` and ``sr`` for
    the column products (1.0 on a zero diagonal, whose windows are masked)."""
    d, b = params.dim, lat.tail
    if b is not None:  # the tail's covariances are f[i, i+b:] (:func:`_dead_tail`)
        lat.widen()
        f, g = lat.f, lat.g
        for i in range(d - b - 1, -1, -1):
            g[:, i + b:d] -= g[:, d + i, None] * f[i:i + 1, i + b:d]
        lat.tail = None
    if d > 1:
        gam = params.gamma[0, d - 1:]
        lat.absorb(d - 1, gam, defect(gam), params.defined[0, d - 1:])
    return _factor(lat.g[:, :d], lat.unit, np.where(lat.unit > 0.0, lat.sr, 1.0))


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
