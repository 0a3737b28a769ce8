"""Parameter extraction through the displacement / lattice recursion.

Alternative to :func:`schurq.params.inverse`: after unit-diagonal scaling,
the matrix satisfies a displacement identity R(-t) - F R(-t-1) F* = G J G*
with F the down-shift and J = diag(1, -1), where the two-column generator at
shifted time t is G = [e_0 + s | s], s = (0, conj(S[t, t+1]), ...,
conj(S[t, d-1]), 0, ...).  One recursion step eliminates the top row: with
gamma = v0/u0 from the top row of a generator and Theta = (1/sqrt(1-|gamma|^2))
[[1, -gamma], [-conj(gamma), 1]], the next-level generator takes its first
column from the Theta-transform at time t-1 and its (shifted) second column
from the transform at time t.

Index bookkeeping, validated against the direct band solve on small cases:
with levels counted from 0 (the initial generators) and shifted times tau >= 0
standing for t = -tau, the top-row ratio of the level-m generator at time tau
is the conjugate of ``gamma[tau, tau + m]``.  (Stated as a time-shift rule,
the published recursion's first step is always the identity rotation; the
level index here absorbs that step.)

Degenerate nodes follow the same conventions as the direct solve: a vanishing
top-row ``u`` masks the parameter (value 0); a ratio on the unit circle
(clamped onto it, or of defect 0 after rounding) requires the columns to be
proportional (else the matrix is not PSD) and annihilates the
transformed generator, which is its exact limit.  The defined mask of the
result is recomputed with the divisor rule of the direct solve so both routes
agree on which parameters are genuine.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, NotPSDError, maxnorm
from .params import SchurParams, _degenerate, _disc_allowance, _preamble, defect, forward

__all__ = ["displacement_inverse"]


def _initial_generators(s1: np.ndarray) -> list[np.ndarray]:
    d = s1.shape[0]
    gens = []
    for tau in range(d):
        g = np.zeros((d, 2), dtype=np.complex128)
        g[0, 0] = 1.0
        tail = np.conj(s1[tau, tau + 1:])
        g[1:1 + tail.size, 0] = tail
        g[1:1 + tail.size, 1] = tail
        gens.append(g)
    return gens


def _theta_transform(g: np.ndarray, gamma_hat: complex, degenerate: bool) -> np.ndarray:
    if degenerate:
        return np.zeros_like(g)
    if gamma_hat == 0:
        return g
    dg = defect(gamma_hat)
    out = np.empty_like(g)
    out[:, 0] = (g[:, 0] - np.conj(gamma_hat) * g[:, 1]) / dg
    out[:, 1] = (g[:, 1] - gamma_hat * g[:, 0]) / dg
    return out


def displacement_inverse(s: np.ndarray) -> SchurParams:
    """Extract Schur parameters via the generator recursion.

    Agrees with :func:`schurq.params.inverse` (tested to 1e-9 entrywise); the
    result is additionally verified by reconstruction, so inconsistent
    (non-PSD) input raises :class:`NotPSDError` on this route too, either at
    a signature violation (``d_top`` below minus the entry slack of the
    unit-diagonal scaling) or at the final check.
    """
    s, lvec, scale = _preamble(s)
    d = s.shape[0]
    entry_tol = DEFAULT_TOL.entry(scale)

    # Unit-diagonal scaling with the 0/0 -> 0 convention; entries over a
    # (numerically) vanished diagonal must themselves vanish for a PSD matrix.
    ll = np.outer(lvec, lvec)
    dead = _degenerate(ll, scale)
    s1 = np.where(dead, 0.0, s / np.where(dead, 1.0, ll))
    bad = dead & ~np.eye(d, dtype=bool) & (np.abs(s) > entry_tol + ll)
    if np.any(bad):
        k, j = np.argwhere(bad)[0]
        raise NotPSDError("inconsistent degenerate entry", entry=(int(k), int(j)),
                          band=int(abs(j - k)), value=float(abs(s[k, j])))

    snorm1 = maxnorm(s1)
    u_eps = DEFAULT_TOL.abs_eps
    d_tol = DEFAULT_TOL.entry(snorm1)
    prop_tol = 1e3 * d_tol

    gens = _initial_generators(s1)
    gammas = [0.0 + 0.0j] * d
    degen = [False] * d
    gamma = np.zeros((d, d), dtype=np.complex128)

    for m in range(1, d):
        trans = [_theta_transform(g, gammas[tau], degen[tau])
                 for tau, g in enumerate(gens)]
        new_gens: list[np.ndarray] = []
        new_gammas: list[complex] = []
        new_degen: list[bool] = []
        for tau in range(len(gens) - 1):
            a, b = trans[tau + 1], trans[tau]
            n = a.shape[0]
            g = np.empty((n - 1, 2), dtype=np.complex128)
            g[:, 0] = a[:n - 1, 0]
            g[:, 1] = b[1:, 1]
            k, j = tau, tau + m
            u0, v0 = g[0, 0], g[0, 1]
            d_top = float(abs(u0) ** 2 - abs(v0) ** 2)
            if d_top < -d_tol:
                raise NotPSDError("generator signature violated",
                                  entry=(k, j), band=m, value=d_top)
            if abs(u0) <= u_eps:
                gh, dgn = 0.0 + 0.0j, False
            else:
                gh = v0 / u0
                mod = abs(gh)
                dgn = False
                if mod > 1.0:
                    divisor = max(float(abs(u0)) * lvec[k] * lvec[j], 1e-300)
                    if mod - 1.0 > _disc_allowance(scale, divisor):
                        raise NotPSDError("parameter outside the unit disc",
                                          entry=(k, j), band=m, value=float(mod))
                    gh /= mod
                    mod = 1.0
                if mod == 1.0 or defect(gh) == 0.0:  # the transform would divide by 0
                    resid = maxnorm(g[:, 1] - gh * g[:, 0])
                    if resid > prop_tol:
                        raise NotPSDError("inconsistent boundary generator",
                                          entry=(k, j), band=m, value=float(resid))
                    dgn = True
            gamma[k, j] = np.conj(gh)
            new_gens.append(g)
            new_gammas.append(gh)
            new_degen.append(dgn)
        gens, gammas, degen = new_gens, new_gammas, new_degen

    # Reconcile the defined mask with the divisor rule of the direct solve;
    # masked slots revert to the convention value 0.
    defined = np.zeros((d, d), dtype=bool)
    final = np.zeros((d, d), dtype=np.complex128)
    for b in range(1, d):
        for k in range(d - b):
            j = k + b
            dprod = float(np.prod(defect(final[k, k + 1:j]))
                          * np.prod(defect(final[k + 1:j, j])))
            if not _degenerate(lvec[k] * lvec[j] * dprod, scale):
                final[k, j] = gamma[k, j]
                defined[k, j] = True

    params = SchurParams(d, lvec, final, defined)
    params.validate()

    err = maxnorm(forward(params) - s)
    if err > 50.0 * d * entry_tol:
        raise NotPSDError("reconstruction mismatch after extraction",
                          value=float(err))
    return params
