"""Parameter extraction through the displacement / lattice recursion.

Alternative to :func:`schurq.params.inverse`, on the same unit-diagonal
matrix (:func:`schurq.params._preamble`, which also applies the zero-diagonal
rule), which satisfies a displacement identity R(-t) - F R(-t-1) F* = G J G*
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

One level is one array step on a generator pair: row tau of the (n, n)
arrays ``u``, ``v`` (n = d - m) holds the generator at time tau.  Node
(tau, tau + m) reads only ``dl[tau]`` and ``dr[tau + m]``, and each row and
column occurs once per level, so the nodes of a level are independent: they
are decided at once, and the first failing tau raises.  Level m + 1 reads
``u[1:, :n-1]`` and ``v[:n-1, 1:]`` of the transformed pair.

Degenerate nodes follow the divisor rule of the direct solve, decided when
the recursion reaches them: node (k, j)'s divisor is the unit factors of k
and j (0 on a zero diagonal) times the defect products of the parameters
already decided along row k and column j.  A masked node stores 0
(``defined`` False) and takes the identity rotation, so no noise ratio
enters later levels; its generator must still keep the signature
``|u0| >= |v0|`` within the entry slack, as a masked entry of the direct
solve must keep its residual (the rejection's value is ``|u0|^2 - |v0|^2``
in the recursion's coordinates, not on the input's scale).  A live node's
ratio is judged by the disc allowance of the direct solve; a ratio on the
unit circle (clamped onto it, or of defect 0 after rounding) requires the
columns to be proportional (else the matrix is not PSD) and annihilates the
transformed generator, its exact limit; a live node whose ``u0`` that
annihilation zeroed takes ratio 0.  The final check compares the synthesis
of the parameters, unit factors for ``L``, with the unit-diagonal matrix.
"""

from __future__ import annotations

import numpy as np

from .linalg import NotPSDError, maxnorm
from .params import (_ENTRY_EPS, SchurParams, _degenerate, _disc_allowance, _preamble,
                     _skew, defect, forward)

__all__ = ["displacement_inverse"]


def _modulus(z: np.ndarray) -> np.ndarray:
    """``|z|`` by libm ``hypot``, as scalar ``abs`` rounds it (array ``np.abs`` may not)."""
    return np.hypot(z.real, z.imag)


def _raise_first(checks: list, m: int) -> None:
    """Raise as the node-by-node recursion would: level m's first failing node,
    by its first failing check."""
    failing = [c for c in checks if np.count_nonzero(c[0])]
    if failing:
        tau = min(int(np.argmax(fail)) for fail, _, _ in failing)
        _, reason, value = next(c for c in failing if c[0][tau])
        raise NotPSDError(reason, entry=(tau, tau + m), band=m, value=float(value[tau]))


def displacement_inverse(s: np.ndarray) -> SchurParams:
    """Extract Schur parameters via the generator recursion.

    Agrees with :func:`schurq.params.inverse` (tested to 1e-9 entrywise, with
    equal ``defined`` masks); the result is additionally verified by
    reconstruction, so inconsistent (non-PSD) input raises
    :class:`NotPSDError` on this route too: at a masked node whose generator
    violates the signature, a ratio past the disc allowance, a boundary
    generator with columns that are not proportional, or the final check.
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
        divisor = dl[:n] * dr[m:]
        masked = _degenerate(divisor)
        checks = []  # (failing nodes, reason, values), in each node's order
        n_masked = np.count_nonzero(masked)
        if n_masked:  # masked: ratio 0, the identity rotation
            d_top = _modulus(u[:, 0]) ** 2 - _modulus(v[:, 0]) ** 2
            checks.append((masked & (d_top < -_ENTRY_EPS),
                           "generator signature violated", d_top))
            if n_masked == n:  # a dead level moves no generator
                _raise_first(checks, m)
                continue
        defined_m[:n, m] = ~masked
        # u0 is 0 after a node on the circle annihilated it: ratio 0
        ratio = ~masked & (u[:, 0] != 0)
        gh = np.divide(v[:, 0], u[:, 0], out=np.zeros(n, np.complex128), where=ratio)
        mod = _modulus(gh)
        clamp = mod > 1.0
        if np.count_nonzero(clamp):
            checks.append((clamp & (mod - 1.0 > _disc_allowance(divisor)),
                           "parameter outside the unit disc", mod))
            np.divide(gh, mod, out=gh, where=clamp)
        dg = defect(gh)
        circle = (mod >= 1.0) | (dg == 0.0)  # the transform would divide by 0
        on_circle = np.count_nonzero(circle)
        if on_circle:
            resid = np.max(np.abs(v - gh[:, None] * u), axis=1)
            checks.append((circle & (resid > 1e3 * _ENTRY_EPS),
                           "inconsistent boundary generator", resid))
        _raise_first(checks, m)
        np.conjugate(gh, out=gamma_m[:n, m], where=ratio)
        dl[:n] *= dg
        dr[m:] *= dg
        if m < d - 1 and np.count_nonzero(gh):
            q = np.where(circle, 1.0, dg)[:, None]
            u, v = (u - np.conj(gh)[:, None] * v) / q, (v - gh[:, None] * u) / q
            if on_circle:
                u[circle] = v[circle] = 0.0

    err = maxnorm(forward(SchurParams(d, unit, gamma[:, :d], defined[:, :d])) - s1)
    if err > 50.0 * d * _ENTRY_EPS:
        raise NotPSDError("reconstruction mismatch after extraction", value=float(err))
    return SchurParams(d, lvec, gamma[:, :d], defined[:, :d])
