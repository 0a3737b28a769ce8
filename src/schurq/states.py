"""Density-matrix layer built on the contraction parametrization.

A d-dimensional state is a trace-one PSD matrix ``rho``.  Besides its
entries, two further coordinate systems are used here:

* real coefficients in a self-adjoint basis of the d x d matrices made
  of the identity, d - 1 traceless diagonal matrices ``h_2 .. h_d`` and
  d(d-1) off-diagonal pair matrices ``f_kj``:

      rho = (1/d) (I + sum_l beta_l h_l + sum_{k != j} gamma_kj f_kj);

* the contraction parameters of the scaled matrix ``d * rho`` (whose
  diagonal is ``1 +`` the diagonal part of the expansion and whose upper
  entries are ``gamma_kj - i gamma_jk``).  Rescaling a PSD matrix leaves
  its ``g`` parameters unchanged, so these are "the parameters of rho".

Purity, entropy, tensor structure and separability are all read off the
parameters; eigenvalue routines only enter as cross-check oracles
(``entropy_E0`` and the partial-transpose witness).

Conventions worth knowing:

* Tensor products use the ``kron`` convention of :mod:`schurq.linalg`
  (second factor varies fastest).
* ``entropy_E = (1/d) log det rho`` is in nats, equals -infinity for
  every singular (hence every pure) state, and is bounded above by
  ``-log d`` with equality exactly at the maximally mixed state.
* Two-qubit separability is decided by two independent routes: positive
  partial transpose, and a feasibility search for auxiliary
  contractions ``(h14, h13, h24)`` that must satisfy the band equations
  of the partially transposed state together with a system of triangle
  inequalities.  The routes must agree; a persistent disagreement after
  grid refinement raises :class:`ConsistencyError` instead of returning
  a verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConsistencyError,
    NotPSDError,
    hermitize,
    kron,
    maxnorm,
    reference_eigenvalues,
)
from .params import SchurParams, _logdet, forward, inverse, is_psd_via_params

__all__ = [
    "HermBasis",
    "DensityState",
    "SeparabilityVerdict",
    "ConsistencyError",
    "build_basis",
    "state_from_matrix",
    "state_from_coeffs",
    "is_pure",
    "pure_vector",
    "entropy_E",
    "entropy_E0",
    "tensor_params",
    "partial_transpose",
    "is_separable_ppt",
    "is_separable_params",
    "bell_state",
    "werner_state",
]


# ---------------------------------------------------------------------------
# Self-adjoint basis


@dataclass(frozen=True)
class HermBasis:
    """Orthogonal self-adjoint basis {h_1=I, h_2..h_d, f_kj (k != j)}.

    ``elements`` lists all d^2 matrices: first ``h_1 .. h_d``, then for
    each pair k < j (row-major) the symmetric ``f_kj`` followed by the
    antisymmetric ``f_jk``.  ``h`` and ``f`` index with the 1-based
    labels of the construction.
    """

    dim: int
    elements: tuple[np.ndarray, ...]

    def h(self, l: int) -> np.ndarray:
        if not 1 <= l <= self.dim:
            raise IndexError(f"h index {l} out of range 1..{self.dim}")
        return self.elements[l - 1]

    def f(self, k: int, j: int) -> np.ndarray:
        d = self.dim
        if k == j or not (1 <= k <= d and 1 <= j <= d):
            raise IndexError(f"f index ({k}, {j}) invalid for dim {d}")
        lo, hi = min(k, j), max(k, j)
        pair = (lo - 1) * (2 * d - lo) // 2 + (hi - lo - 1)
        return self.elements[d + 2 * pair + (0 if k < j else 1)]


def build_basis(d: int) -> HermBasis:
    """Construct the self-adjoint basis for dimension ``d`` (>= 2).

    ``h_1`` is the identity; for m >= 2, ``h_m`` has m-1 leading diagonal
    ones followed by ``1 - m``, scaled by sqrt(2/(m(m-1))); ``f_kj`` with
    k < j is the real pair matrix ``E_kj + E_jk`` and with k > j the
    imaginary one ``i E_kj - i E_jk``.  For d = 2 this is {I, sigma_1,
    sigma_2, sigma_3}; for d = 3 the Gell-Mann family.
    """
    if d < 2:
        raise ValueError("basis construction needs dimension >= 2")
    elems: list[np.ndarray] = [np.eye(d, dtype=np.complex128)]
    for m in range(2, d + 1):
        h = np.zeros((d, d), dtype=np.complex128)
        c = math.sqrt(2.0 / (m * (m - 1)))
        for t in range(m - 1):
            h[t, t] = c
        h[m - 1, m - 1] = c * (1 - m)
        elems.append(h)
    for k in range(1, d + 1):
        for j in range(k + 1, d + 1):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[k - 1, j - 1] = sym[j - 1, k - 1] = 1.0
            anti = np.zeros((d, d), dtype=np.complex128)
            anti[k - 1, j - 1] = -1.0j
            anti[j - 1, k - 1] = 1.0j
            elems.append(sym)
            elems.append(anti)
    return HermBasis(d, tuple(elems))


@functools.lru_cache(maxsize=16)
def _off_diagonal(d: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Index arrays of the strict upper and strict lower triangle (read-only)."""
    out = (np.triu_indices(d, 1), np.tril_indices(d, -1))
    for idx in out:
        for a in idx:
            a.flags.writeable = False
    return out


def _coeffs_of(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(beta, gamma) coefficients of ``rho`` in the self-adjoint basis.

    beta_m = d * tr(h_m rho) / 2 reduces to partial sums of the scaled
    diagonal; gamma_kj = d * Re(rho_kj) for k < j and d * Im(rho_kj) for
    k > j, so that d*rho_kj = gamma_kj - i*gamma_jk above the diagonal.
    """
    d = rho.shape[0]
    sdiag = d * rho.diagonal().real
    beta = np.empty(d - 1)
    for m in range(2, d + 1):
        c = math.sqrt(2.0 / (m * (m - 1)))
        beta[m - 2] = c * (np.add.reduce(sdiag[: m - 1]) - (m - 1) * sdiag[m - 1]) / 2.0
    gamma = np.zeros((d, d))
    iu, il = _off_diagonal(d)
    gamma[iu] = d * rho.real[iu]
    gamma[il] = d * rho.imag[il]
    return beta, gamma


def _rho_of(d: int, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Assemble the trace-one matrix with the given basis coefficients."""
    sdiag = np.ones(d)
    for m in range(2, d + 1):
        c = math.sqrt(2.0 / (m * (m - 1)))
        sdiag[: m - 1] += c * beta[m - 2]
        sdiag[m - 1] += c * (1 - m) * beta[m - 2]
    s = np.diag(sdiag.astype(np.complex128))
    iu = _off_diagonal(d)[0]
    upper = gamma[iu] - 1.0j * gamma.T[iu]
    s[iu] = upper
    s.T[iu] = np.conj(upper)
    return s / d


# ---------------------------------------------------------------------------
# States


@dataclass(frozen=True)
class DensityState:
    """A trace-one PSD matrix with its basis coefficients and parameters.

    ``params`` are the contraction parameters of ``dim * rho`` (diagonal
    factors ``sqrt(dim * rho_kk)``); ``beta``/``gamma`` are the real
    basis coefficients.  Treat all fields as read-only.
    """

    dim: int
    rho: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    params: SchurParams


def state_from_matrix(rho: np.ndarray) -> DensityState:
    """Validate ``rho`` as a state and extract coefficients and parameters.

    Raises ``ValueError`` for a non-Hermitian or non-unit-trace input and
    :class:`~schurq.linalg.NotPSDError` (with the failing band) when the
    matrix is not PSD.
    """
    m = hermitize(rho)
    d = m.shape[0]
    tr = float(m.trace().real)
    if abs(tr - 1.0) > DEFAULT_TOL.abs_eps:
        raise ValueError(f"state must have unit trace, got {tr!r}")
    params = inverse(d * m)
    beta, gamma = _coeffs_of(m)
    return DensityState(d, m, beta, gamma, params)


# Positivity margins below this size are "too close to call" for the
# dedicated d=2 / d=3 inequality systems; the generic band test decides.
_FAST_PATH_SLACK = 1e-6


def _cylinder_margin(beta: np.ndarray, gamma: np.ndarray) -> float:
    """d=2 positivity margin: (1 - beta3^2) - (gamma12^2 + gamma21^2).

    Nonnegative exactly when the coefficient vector lies in the solid
    cylinder |beta3| <= 1, gamma12^2 + gamma21^2 <= 1 - beta3^2.
    """
    b3 = float(beta[0])
    return (1.0 - b3 * b3) - (gamma[0, 1] ** 2 + gamma[1, 0] ** 2)


def _gell_mann_margin(beta: np.ndarray, gamma: np.ndarray) -> float | None:
    """d=3 positivity margin from the explicit inequality system.

    Division-free rearrangement with D_k = 3*rho_kk and x_kj the scaled
    upper entries: the three diagonal conditions, the two consecutive
    band conditions D_k D_{k+1} >= |x_{k,k+1}|^2, and the long-band
    condition |D_2 x13 - x12 x23| <= sqrt((D1 D2 - |x12|^2)(D2 D3 -
    |x23|^2)) (for D_2 > 0; for D_2 = 0 it degenerates to |x13| <=
    sqrt(D1 D3)).  Returns None when the D_2 branch is too close to
    call.
    """
    b2, b3 = float(beta[0]), float(beta[1])
    d1 = 1.0 + b2 + b3 / math.sqrt(3.0)
    d2 = 1.0 - b2 + b3 / math.sqrt(3.0)
    d3 = 1.0 - 2.0 * b3 / math.sqrt(3.0)
    x12 = gamma[0, 1] - 1.0j * gamma[1, 0]
    x23 = gamma[1, 2] - 1.0j * gamma[2, 1]
    x13 = gamma[0, 2] - 1.0j * gamma[2, 0]
    m12 = d1 * d2 - abs(x12) ** 2
    m23 = d2 * d3 - abs(x23) ** 2
    margin = min(d1, d2, d3, m12, m23)
    if margin < 0.0:
        return margin
    if d2 > _FAST_PATH_SLACK:
        m13 = math.sqrt(m12 * m23) - abs(d2 * x13 - x12 * x23)
    elif d2 == 0.0:
        m13 = math.sqrt(d1 * d3) - abs(x13)
    else:
        return None
    return min(margin, m13)


def state_from_coeffs(d: int, beta: np.ndarray, gamma: np.ndarray) -> DensityState:
    """Build a state from basis coefficients, checking positivity.

    The PSD decision is always made by the generic band test; for d = 2
    and d = 3 the dedicated inequality systems are evaluated as well and
    a decisive disagreement raises :class:`ConsistencyError`.
    """
    beta = np.asarray(beta, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if beta.shape != (d - 1,):
        raise ValueError(f"beta must have shape ({d - 1},)")
    if gamma.shape != (d, d):
        raise ValueError(f"gamma must have shape ({d}, {d})")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
        raise ValueError("non-finite coefficients")
    if np.any(np.abs(np.diagonal(gamma)) > 1e-12):
        raise ValueError("gamma has no diagonal degrees of freedom")
    rho = _rho_of(d, beta, gamma)
    fast: float | None = None
    if d == 2:
        fast = _cylinder_margin(beta, gamma)
    elif d == 3:
        fast = _gell_mann_margin(beta, gamma)
    try:
        state = state_from_matrix(rho)
    except NotPSDError:
        if fast is not None and fast > _FAST_PATH_SLACK:
            raise ConsistencyError(
                "inequality system accepts (margin %.3e) but band test "
                "rejects" % fast) from None
        raise
    if fast is not None and fast < -_FAST_PATH_SLACK:
        raise ConsistencyError(
            "inequality system rejects (margin %.3e) but band test "
            "accepts" % fast)
    return state


# ---------------------------------------------------------------------------
# Purity


def _support(state: DensityState) -> np.ndarray:
    return np.flatnonzero(state.rho.diagonal().real > DEFAULT_TOL.abs_eps)


def is_pure(state: DensityState) -> bool:
    """Rank-one test read off the parameters.

    True iff every pair of *consecutive* support indices (nonzero
    diagonal, possibly separated by zero-diagonal gaps) carries a
    defined parameter of modulus 1, and every other defined parameter
    vanishes.  Pairs involving a zero-diagonal index are masked and
    impose nothing.  Modulus comparisons use sqrt(abs_eps): parameter
    moduli move like the square root of entry-level perturbations near
    the boundary.
    """
    support = _support(state)
    if support.size == 0:
        return False
    mu = math.sqrt(DEFAULT_TOL.abs_eps)
    g = state.params.gamma
    defined = state.params.defined
    consecutive = set(zip(support[:-1], support[1:]))
    for k, j in zip(*np.nonzero(defined)):
        if (k, j) in consecutive:
            if abs(g[k, j]) < 1.0 - mu:
                return False
        elif abs(g[k, j]) > mu:
            return False
    # A masked consecutive-support pair leaves rank one uncertifiable.
    return all(defined[k, j] for k, j in consecutive)


def pure_vector(state: DensityState) -> np.ndarray:
    """Unit vector v with ``rho = v v*`` for a pure state.

    Over the support indices i_1 < ... < i_k the components are
    ``v[i_m] = sqrt(rho[i_m, i_m]) * conj(g[i_1, i_2]) ... conj(g[i_{m-1},
    i_m])``; all other components vanish.  The first support component is
    real positive, fixing the global phase.
    """
    if not is_pure(state):
        raise ValueError("pure_vector requires a pure state")
    support = _support(state)
    r = state.rho.diagonal().real
    g = state.params.gamma
    v = np.zeros(state.dim, dtype=np.complex128)
    amp = 1.0 + 0.0j
    v[support[0]] = math.sqrt(r[support[0]])
    for prev, cur in zip(support[:-1], support[1:]):
        amp *= np.conj(g[prev, cur])
        v[cur] = math.sqrt(r[cur]) * amp
    return v


# ---------------------------------------------------------------------------
# Entropy


def entropy_E(state: DensityState) -> float:
    """(1/d) log det rho in nats, computed from the parameters.

    Equal to (1/d) (sum_k log rho_kk + sum_{defined} log(1 - |g_kj|^2)),
    evaluated as the log-det of the parameters of ``d * rho`` minus log d.
    Returns -infinity as soon as some diagonal entry vanishes or some
    parameter sits on the unit circle (every pure state does both).
    Circle contact is judged at rounding resolution (``CIRCLE_SNAP``) by the
    same rule as :func:`~schurq.params.det_from_params`, so a rank-one
    matrix assembled in floating point is flagged -infinity even when its
    stored determinant is a nonzero rounding residue.  Always <= -log d,
    with equality only at the maximally mixed state.
    """
    return _logdet(state.params) / state.dim - math.log(state.dim)


def entropy_E0(state: DensityState) -> float:
    """(1/d) sum of log of the nonzero eigenvalues (eigen-oracle variant).

    Eigenvalues at most ``DEFAULT_TOL.entry(1)`` are dropped, so every pure
    state has E0 = 0 while E is -infinity; for strictly positive states E0
    coincides with :func:`entropy_E`.
    """
    lam = reference_eigenvalues(state.rho)
    keep = lam[lam > DEFAULT_TOL.entry(1.0)]
    return float(np.sum(np.log(keep)) / state.dim)


# ---------------------------------------------------------------------------
# Tensor products


def tensor_params(p1: SchurParams, p2: SchurParams) -> SchurParams:
    """Parameters of ``S1 (x) S2`` where ``p1``, ``p2`` parametrize S1, S2.

    Extracted from the assembled product and verified against it by
    reconstruction; a residual beyond the slack raises
    :class:`ConsistencyError`.
    """
    s = kron(forward(p1), forward(p2))
    flat = inverse(s)
    resid = maxnorm(forward(flat) - s)
    if resid > 100.0 * DEFAULT_TOL.entry(maxnorm(s)):
        raise ConsistencyError(
            f"tensor parameters fail to reproduce the product "
            f"(residual {resid:.3e})")
    return flat


# ---------------------------------------------------------------------------
# Separability


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of a separability test.

    ``witness`` is the minimal partial-transpose eigenvalue for the PPT
    route, a human-readable infeasibility certificate for the parameter
    route when entangled, and None otherwise.
    """

    separable: bool
    method: str
    witness: float | str | None


def partial_transpose(state: DensityState, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor of a bipartite state.

    Under the package ``kron`` convention, entry ((a,b),(c,e)) of the
    result is entry ((a,e),(c,b)) of ``rho``.
    """
    d1, d2 = dims
    if d1 * d2 != state.dim:
        raise ValueError(f"dims {dims} incompatible with dimension {state.dim}")
    r4 = state.rho.reshape(d1, d2, d1, d2)
    return np.ascontiguousarray(r4.transpose(0, 3, 2, 1)).reshape(
        state.dim, state.dim)


_PPT_DIMS = {(2, 2), (2, 3), (3, 2)}


def is_separable_ppt(state: DensityState,
                     dims: tuple[int, int] = (2, 2)) -> SeparabilityVerdict:
    """Positive-partial-transpose criterion (decisive for 2x2 and 2x3).

    The verdict comes from the band test on the partial transpose; the
    witness is its minimal eigenvalue from the reference oracle.
    """
    if tuple(dims) not in _PPT_DIMS:
        raise ValueError(
            f"PPT is only decisive for systems {sorted(_PPT_DIMS)}, got {dims}")
    pt = partial_transpose(state, dims)
    separable = is_psd_via_params(state.dim * pt)
    witness = float(np.min(reference_eigenvalues(pt)))
    return SeparabilityVerdict(separable, "ppt", witness)


# First-level polar grid of the parameter separability search, and how many
# times it is refined (doubling both counts) on failure.
_GRID_ANGLES = 64
_GRID_RADII = 32
_GRID_REFINE = 1


@functools.cache
def _grid_points(level: int) -> np.ndarray:
    """Polar grid over the closed unit disc (origin included once) of
    refinement ``level`` (read-only)."""
    angles, radii = _GRID_ANGLES * 2 ** level, _GRID_RADII * 2 ** level
    r = np.linspace(0.0, 1.0, radii)[1:]
    th = 2.0 * np.pi * np.arange(angles) / angles
    z = (r[:, None] * np.exp(1.0j * th)[None, :]).ravel()
    grid = np.concatenate([[0.0 + 0.0j], z])
    grid.flags.writeable = False
    return grid


def _defects(zs: list[complex]) -> list[float]:
    """:func:`~schurq.params.defect` of each number as numpy computes it on a
    scalar: numpy's complex modulus (not libm ``hypot``, which ``abs``
    calls), then ``pow(mod, 2)`` (numpy arrays square instead)."""
    mods = np.abs(np.array(zs, dtype=np.complex128)).tolist()
    return [math.sqrt(max(1.0 - mod ** 2, 0.0)) for mod in mods]


def _disc_candidates(target: complex, coeff: float, grid: np.ndarray,
                     ftol: float, cap: int) -> list[complex]:
    """Unit-disc candidates h with |target - coeff*h| <= ftol.

    The forced value target/coeff (clamped to the boundary) and the
    convention value 0 always head the list; surviving grid points
    follow, capped.  The final predicate re-checks every candidate, so
    the list only needs to cover, not certify.
    """
    out: list[complex] = []
    if coeff > ftol:
        # numpy divides a complex by a real as a product with its reciprocal.
        forced = target * (1.0 / coeff)
        mod = abs(forced)
        out.append(forced * (1.0 / mod) if mod > 1.0 else forced)
    out.append(0.0 + 0.0j)
    ok = grid[np.abs(target - coeff * grid) <= ftol]
    out.extend(ok[:cap].tolist())
    return out


def is_separable_params(state: DensityState) -> SeparabilityVerdict:
    """Two-qubit separability via the auxiliary-contraction system.

    First the closed-form necessary inequality on the state's own
    parameters is checked; if it holds, the test searches the three unit
    discs for ``(h14, h13, h24)`` satisfying, up to tolerance,

    * the band equations tying them to the entries rho14, rho13, rho24
      of the partially transposed state,
    * solvability of the final band (entry rho23) inside the disc, and
    * the triangle inequalities coupling them to the state parameters.

    Feasible points, when they exist, cluster at the values forced by
    the band equations, which always enter the candidate list alongside
    the polar grid (refined ``_GRID_REFINE`` times on failure).  Cells are
    evaluated independently, so the verdict is a pure "any cell
    feasible".  The verdict is cross-checked against
    :func:`is_separable_ppt`; disagreement raises
    :class:`ConsistencyError`.
    """
    if state.dim != 4:
        raise ValueError("parameter separability test requires a 2x2 system")
    # The search is scalar: Python numbers, no numpy dispatch per operation.
    rho = state.rho
    g12, g13, g14, g23, g24, g34 = state.params.gamma[_off_diagonal(4)[0]].tolist()
    d12, d13, d23, d24, d34 = _defects([g12, g13, g23, g24, g34])
    r = rho.diagonal().real.tolist()
    a = math.sqrt(max(r[0] * r[3], 0.0))
    b = math.sqrt(max(r[1] * r[2], 0.0))
    s13 = math.sqrt(max(r[0] * r[2], 0.0))
    s24 = math.sqrt(max(r[1] * r[3], 0.0))
    rho13, rho14 = complex(rho[0, 2]), complex(rho[0, 3])
    rho23, rho24 = complex(rho[1, 2]), complex(rho[1, 3])
    c12, c23, c34 = g12.conjugate(), g23.conjugate(), g34.conjugate()
    ftol = 10.0 * DEFAULT_TOL.entry(1.0)

    four_terms = (g12 * g23 * g34 + d12 * g13 * d23 * g34
                  + g12 * d23 * g24 * d34
                  - d12 * g13 * c23 * g24 * d34)
    first_margin = b + a * d12 * d13 * d24 * d34 - a * abs(four_terms)

    def feasible(h14: complex, q14: float, h13: complex, q13: float,
                 h24: complex, q24: float) -> bool:
        """The system at one point, given the defects ``q`` of its ``h``."""
        if abs(rho14 - b * h14) > ftol:
            return False
        if abs(rho13 - s13 * (c12 * h14 + d12 * q14 * h13)) > ftol:
            return False
        if abs(rho24 - s24 * (h14 * c34 + q14 * h24 * d34)) > ftol:
            return False
        bracket = (c12 * h14 * c34
                   + d12 * h13 * q14 * c34
                   + c12 * q14 * h24 * d34
                   - d12 * h13 * h14.conjugate() * h24 * d34)
        if abs(rho23 - a * bracket) > a * d12 * q13 * q24 * d34 + ftol:
            return False
        if abs(g12 * g23 - c12 * h14) > d12 * (d23 + q14) + ftol:
            return False
        if abs(g34 * g23 - c34 * h14) > d34 * (d23 + q14) + ftol:
            return False
        return a * abs(bracket) <= b + a * d12 * q13 * q24 * d34 + ftol

    def search(grid: np.ndarray) -> tuple[complex, complex, complex] | None:
        c14 = _disc_candidates(rho14, b, grid, ftol, cap=12)
        for h14, q14 in zip(c14, _defects(c14)):
            c13 = _disc_candidates(rho13 - s13 * c12 * h14,
                                   s13 * d12 * q14, grid, ftol, cap=8)
            c24 = _disc_candidates(rho24 - s24 * h14 * c34,
                                   s24 * q14 * d34, grid, ftol, cap=8)
            q13s, q24s = _defects(c13), _defects(c24)
            for h13, q13 in zip(c13, q13s):
                for h24, q24 in zip(c24, q24s):
                    if feasible(h14, q14, h13, q13, h24, q24):
                        return h14, h13, h24
        return None

    if first_margin < -ftol:
        verdict = SeparabilityVerdict(
            False, "param-inequalities",
            f"necessary inequality violated by {-first_margin:.3e}")
        level = 0
    else:
        point = None
        for level in range(_GRID_REFINE + 1):
            point = search(_grid_points(level))
            if point is not None:
                break
        if point is not None:
            verdict = SeparabilityVerdict(True, "param-inequalities", None)
        else:
            verdict = SeparabilityVerdict(
                False, "param-inequalities",
                f"no feasible (h14, h13, h24) after {level + 1} grid levels")

    ppt = is_separable_ppt(state, (2, 2))
    if ppt.separable != verdict.separable:
        raise ConsistencyError(
            "parameter-inequality verdict "
            f"({'separable' if verdict.separable else 'entangled'}) "
            "disagrees with PPT "
            f"(witness {ppt.witness:.3e}) beyond grid refinement")
    return verdict


# ---------------------------------------------------------------------------
# Named states


def bell_state() -> DensityState:
    """The two-qubit state (|00> + |11>)/sqrt(2) as a density matrix."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return state_from_matrix(np.outer(v, v.conj()))


def werner_state(p: float) -> DensityState:
    """Mixture p * Bell + (1 - p) * I/4 (a state for -1/3 <= p <= 1)."""
    rho = p * bell_state().rho + (1.0 - p) * np.eye(4) / 4.0
    return state_from_matrix(rho)
