"""Density-matrix layer built on the contraction parametrization.

A d-dimensional state is a trace-one PSD matrix ``rho``.  Besides its
entries, two further coordinate systems are used here:

* real coefficients in a self-adjoint basis of the d x d matrices made
  of the identity, d - 1 traceless diagonal matrices ``h_2 .. h_d`` and
  d(d-1) off-diagonal pair matrices ``f_kj``:

      rho = (1/d) (I + sum_l beta_l h_l + sum_{k != j} gamma_kj f_kj)

  where ``h_m`` has m - 1 leading diagonal ones followed by ``1 - m``,
  scaled by sqrt(2/(m(m-1))), and ``f_kj`` is ``E_kj + E_jk`` for k < j
  and ``i E_kj - i E_jk`` for k > j (the Pauli matrices for d = 2, the
  Gell-Mann family for d = 3).  The coefficients are read off and
  assembled in closed form; the basis matrices are never built;

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
  inequalities.  The routes must agree; a disagreement raises
  :class:`ConsistencyError` instead of returning a verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConsistencyError,
    hermitize,
    kron,
    maxnorm,
    reference_eigenvalues,
)
from .params import (SchurParams, _logdet, _zero_diagonal, forward, inverse,
                     is_psd_via_params)

__all__ = [
    "DensityState",
    "SeparabilityVerdict",
    "ConsistencyError",
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
# Basis coefficients


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


@dataclass(frozen=True, eq=False)
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


def state_from_coeffs(d: int, beta: np.ndarray, gamma: np.ndarray) -> DensityState:
    """Build a state from basis coefficients, checking positivity.

    The PSD decision is the band test of :func:`state_from_matrix`, which
    raises :class:`~schurq.linalg.NotPSDError` with the failing band.  For
    d = 2 and d = 3 it agrees with the paper's explicit conditions (the
    cylinder and the Gell-Mann inequalities); the tests check that.
    """
    beta = np.asarray(beta, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if beta.shape != (d - 1,):
        raise ValueError(f"beta must have shape ({d - 1},)")
    if gamma.shape != (d, d):
        raise ValueError(f"gamma must have shape ({d}, {d})")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
        raise ValueError("non-finite coefficients")
    if np.any(np.abs(np.diagonal(gamma)) > DEFAULT_TOL.abs_eps):
        raise ValueError("gamma has no diagonal degrees of freedom")
    return state_from_matrix(_rho_of(d, beta, gamma))


# ---------------------------------------------------------------------------
# Purity


def _support(state: DensityState) -> np.ndarray:
    lvec, defined = state.params.diag, state.params.defined
    zero = _zero_diagonal(lvec)
    if np.count_nonzero(zero):  # below the threshold, a row with a parameter is support
        zero = _zero_diagonal(lvec, defined.any(0) | defined.any(1))
    return np.flatnonzero(~zero)


def is_pure(state: DensityState) -> bool:
    """Rank-one test read off the parameters.

    True iff every pair of *consecutive* support indices (diagonals not
    zero by the extraction's rule, possibly separated by zero-diagonal gaps)
    carries a defined parameter of modulus 1, and every other defined
    parameter vanishes.  Pairs involving a zero-diagonal index are masked
    and impose nothing.  Modulus comparisons use sqrt(abs_eps): parameter
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


def _defects(zs: list[complex]) -> list[float]:
    """:func:`~schurq.params.defect` of each number as numpy computes it on a
    scalar: numpy's complex modulus (not libm ``hypot``, which ``abs``
    calls), then ``pow(mod, 2)`` (numpy arrays square instead)."""
    mods = np.abs(np.array(zs, dtype=np.complex128)).tolist()
    return [math.sqrt(max(1.0 - mod ** 2, 0.0)) for mod in mods]


def _disc_candidates(target: complex, coeff: float, ftol: float) -> list[complex]:
    """Unit-disc candidates for h in the band equation target = coeff*h.

    The forced value target/coeff (clamped to the boundary) when
    ``coeff > ftol``, then the convention value 0, which is the only
    candidate when h is free.  The final predicate re-checks every
    candidate, so the list only proposes, never certifies.
    """
    out: list[complex] = []
    if coeff > ftol:
        # numpy divides a complex by a real as a product with its reciprocal.
        forced = target * (1.0 / coeff)
        mod = abs(forced)
        out.append(forced * (1.0 / mod) if mod > 1.0 else forced)
    out.append(0.0 + 0.0j)
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

    Each auxiliary contraction is tried at the value its band equation
    forces (clamped onto the unit circle) and at the convention value 0,
    the only candidate when the equation leaves it free; that is at most
    eight points.  Points are evaluated independently, so the verdict is
    a pure "any point feasible".  The verdict is cross-checked against
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

    def search() -> bool:
        c14 = _disc_candidates(rho14, b, ftol)
        for h14, q14 in zip(c14, _defects(c14)):
            c13 = _disc_candidates(rho13 - s13 * c12 * h14, s13 * d12 * q14, ftol)
            c24 = _disc_candidates(rho24 - s24 * h14 * c34, s24 * q14 * d34, ftol)
            q13s, q24s = _defects(c13), _defects(c24)
            for h13, q13 in zip(c13, q13s):
                for h24, q24 in zip(c24, q24s):
                    if feasible(h14, q14, h13, q13, h24, q24):
                        return True
        return False

    if first_margin < -ftol:
        verdict = SeparabilityVerdict(
            False, "param-inequalities",
            f"necessary inequality violated by {-first_margin:.3e}")
    elif search():
        verdict = SeparabilityVerdict(True, "param-inequalities", None)
    else:
        verdict = SeparabilityVerdict(
            False, "param-inequalities",
            "no feasible (h14, h13, h24) at the forced values")

    ppt = is_separable_ppt(state, (2, 2))
    if ppt.separable != verdict.separable:
        raise ConsistencyError(
            "parameter-inequality verdict "
            f"({'separable' if verdict.separable else 'entangled'}) "
            "disagrees with PPT "
            f"(witness {ppt.witness:.3e})")
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
