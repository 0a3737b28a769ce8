"""Parameter extraction through the displacement / lattice recursion.

Alternative to :func:`schurq.params.inverse`, on the same unit-diagonal
matrix (:func:`schurq.params._preamble`, which also applies the zero-diagonal
rule), which satisfies a displacement identity R(-t) - F R(-t-1) F* = G J G*
with F the down-shift and J = diag(1, -1), where the two-column generator at
shifted time t is G = [e_0 + s | s], s = (0, conj(S[t, t+1]), ...,
conj(S[t, d-1]), 0, ...).  One recursion step eliminates the top row: with
gamma from the top row of a generator and Theta = (1/sqrt(1-|gamma|^2))
[[1, -gamma], [-conj(gamma), 1]], the next-level generator takes its first
column from the Theta-transform at time t-1 and its (shifted) second column
from the transform at time t.

Index bookkeeping, validated against the direct band solve on small cases:
with levels counted from 0 (the initial generators) and shifted times tau >= 0
standing for t = -tau, the level-m generator at time tau carries node
(tau, tau + m).  (Stated as a time-shift rule, the published recursion's
first step is always the identity rotation; the level index here absorbs
that step.)

One level is one array step on a generator pair: row tau of the (n, n)
arrays ``u``, ``v`` (n = d - m) holds the generator at time tau.  Node
(tau, tau + m) reads only ``dl[tau]`` and ``dr[tau + m]``, the unit factors
times the defect products of the parameters already decided along row tau
and column tau + m, and each row and column occurs once per level, so the
nodes of a level are independent: they are decided at once, and the first
failing tau raises.  Level m + 1 reads ``u[1:, :n-1]`` and ``v[:n-1, 1:]``
of the transformed pair.

The node is the direct solve's window [tau, tau + m] scaled by its row's
defect product: ``conj(v0) dl[tau]`` is the window's covariance and
``dl[tau] dr[tau + m]`` its divisor (``u0`` is ``dr[tau + m]``, so the
top-row ratio ``v0 / u0`` is the conjugate of ``gamma[tau, tau + m]``).  So
each level hands these to the entry step of the direct solve
(:func:`schurq.params._entry_step`), which masks, clamps and rejects: a
masked node is judged as ``inverse`` judges it, by its residual against the
entry slack, and its rejection reports that residual on the input's scale.
A masked node stores 0 (``defined`` False) and takes the identity rotation,
so no noise ratio enters later levels.  The rotation is the route's own: a
parameter on the unit circle (clamped onto it, or of defect 0 after
rounding) requires the generator's columns to be proportional, else the
matrix is not PSD (this boundary check and the entry step's failures raise
in node order), and annihilates the transformed generator, its exact limit.
"""

from __future__ import annotations

import numpy as np

from .linalg import NotPSDError
from .params import _ENTRY_EPS, SchurParams, _entry_step, _preamble, _rejection, _skew

__all__ = ["displacement_inverse"]


def displacement_inverse(s: np.ndarray) -> SchurParams:
    """Extract Schur parameters via the generator recursion.

    Agrees with :func:`schurq.params.inverse` (tested to 1e-9 entrywise, with
    equal ``defined`` masks): each node is decided by the direct solve's
    entry step, so a masked entry is checked and reported as there.
    Inconsistent (non-PSD) input raises :class:`NotPSDError` on this route
    too: at an inconsistent masked entry, a ratio past the disc allowance, or
    a boundary generator with columns that are not proportional.
    """
    s, lvec, s1, unit = _preamble(s)
    d = s.shape[0]
    # Level 0: row tau of u is e_0 + conj(S1[tau, tau+1:]) zero-padded, and v
    # is u without e_0; level 1 drops column 0 of v, so the two share an array.
    buf = np.zeros((d, 2 * d), dtype=np.complex128)
    np.conjugate(s1, out=buf[:, :d])
    u = v = _skew(buf, 0, 0, d, d)
    u[:, 0] = 1.0
    # Level m writes column m of the skewed views: entries (k, k + m).
    gamma, defined = np.zeros((d, 2 * d), np.complex128), np.zeros((d, 2 * d), bool)
    gamma_m, defined_m = _skew(gamma, 0, 0, d, d), _skew(defined, 0, 0, d, d)
    # Unit factors times the defect products decided along each row (dl), column (dr).
    dl, dr = unit.copy(), unit.copy()

    for m in range(1, d):
        n = d - m
        u, v = u[1:, :n], v[:n, 1:]
        # node (tau, tau + m) is window [tau, tau + m] of inverse, scaled by dl[tau]
        val, gam, dg, masked, failure = _entry_step(np.conj(v[:, 0]) * dl[:n],
                                                    dl[:n] * dr[m:])
        if failure is None and np.count_nonzero(masked) == n:
            continue  # a dead level moves no generator
        circle = (np.abs(val) >= 1.0) | (dg == 0.0)  # the transform would divide by 0
        on_circle = np.count_nonzero(circle)
        gh = np.conj(gam)
        if on_circle:
            resid = np.max(np.abs(v - gh[:, None] * u), axis=1)
            bad = circle & (resid > 1e3 * _ENTRY_EPS)
            tau = int(np.argmax(bad))
            if bad[tau] and (failure is None or tau < failure[0]):
                raise NotPSDError("inconsistent boundary generator", entry=(tau, tau + m),
                                  band=m, value=float(resid[tau]))
        if failure is not None:
            tau, reason, value = failure
            raise _rejection(reason, tau, tau + m, value, lvec)
        defined_m[:n, m] = ~masked
        gamma_m[:n, m] = gam
        dl[:n] *= dg
        dr[m:] *= dg
        if m < d - 1 and np.count_nonzero(gam):
            q = np.where(circle, 1.0, dg)[:, None]
            u, v = (u - gam[:, None] * v) / q, (v - gh[:, None] * u) / q
            if on_circle:
                u[circle] = v[circle] = 0.0

    return SchurParams(d, lvec, gamma[:, :d], defined[:, :d])
