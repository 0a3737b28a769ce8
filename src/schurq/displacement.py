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

Degenerate nodes follow the divisor rule of the direct solve, decided when
the recursion reaches them: the divisor of node (k, j) is ``L_k L_j`` times
the defect products of the parameters already decided along row k and column
j.  A masked node stores 0 (``defined`` False) and takes the identity
rotation, so no noise ratio enters later levels; its generator must still
keep the signature ``|u0| >= |v0|`` (within the entry slack of the
unit-diagonal scaling), as a masked entry of the direct solve must keep its
residual.  A live node's ratio is judged by the disc allowance of the direct
solve; a ratio on the unit circle (clamped onto it, or of defect 0 after
rounding) requires the columns to be proportional (else the matrix is not
PSD) and annihilates the transformed generator, which is its exact limit;
a live node whose ``u0`` that annihilation zeroed takes ratio 0.
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

    Agrees with :func:`schurq.params.inverse` (tested to 1e-9 entrywise, with
    equal ``defined`` masks); the result is additionally verified by
    reconstruction, so inconsistent (non-PSD) input raises
    :class:`NotPSDError` on this route too: at a masked node whose generator
    violates the signature, a ratio past the disc allowance, a boundary
    generator with columns that are not proportional, or the final check.
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
    d_tol = DEFAULT_TOL.entry(snorm1)
    prop_tol = 1e3 * d_tol

    gens = _initial_generators(s1)
    gammas = [0.0 + 0.0j] * d
    degen = [False] * d
    gamma = np.zeros((d, d), dtype=np.complex128)
    defined = np.triu(np.ones((d, d), dtype=bool), 1)
    # Defect products of the parameters decided so far along each row (dl)
    # and column (dr), as in the direct solve's lattice.
    lv, dl, dr = lvec.tolist(), [1.0] * d, [1.0] * d

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
            divisor = lv[k] * lv[j] * (dl[k] * dr[j])
            gh, dgn = 0.0 + 0.0j, False
            if _degenerate(divisor, scale):  # masked: ratio 0, the identity rotation
                d_top = float(abs(u0) ** 2 - abs(v0) ** 2)
                if d_top < -d_tol:
                    raise NotPSDError("generator signature violated",
                                      entry=(k, j), band=m, value=d_top)
                defined[k, j] = False
            elif u0 != 0:  # 0 after a node on the circle annihilated it: ratio 0
                gh = v0 / u0
                mod = abs(gh)
                if mod > 1.0:
                    if mod - 1.0 > _disc_allowance(scale, divisor):
                        raise NotPSDError("parameter outside the unit disc",
                                          entry=(k, j), band=m, value=float(mod))
                    gh /= mod
                    mod = 1.0
                dg = defect(gh)
                if mod == 1.0 or dg == 0.0:  # the transform would divide by 0
                    resid = maxnorm(g[:, 1] - gh * g[:, 0])
                    if resid > prop_tol:
                        raise NotPSDError("inconsistent boundary generator",
                                          entry=(k, j), band=m, value=float(resid))
                    dgn = True
                gamma[k, j] = np.conj(gh)
                dl[k] *= dg
                dr[j] *= dg
            new_gens.append(g)
            new_gammas.append(gh)
            new_degen.append(dgn)
        gens, gammas, degen = new_gens, new_gammas, new_degen

    params = SchurParams(d, lvec, gamma, defined)
    params.validate()

    err = maxnorm(forward(params) - s)
    if err > 50.0 * d * entry_tol:
        raise NotPSDError("reconstruction mismatch after extraction",
                          value=float(err))
    return params
