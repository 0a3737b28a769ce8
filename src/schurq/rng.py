"""Deterministic random instances from a fully specified 64-bit generator.

Library tests draw randomness from numpy; the command-line generator cannot,
because its outputs must be reproducible from the seed alone, across
implementations and numpy versions.  The generator here is splitmix64: state
advances by the odd constant 0x9E3779B97F4A7C15 and each output is the
mixed state

    z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

with all arithmetic mod 2^64.  Doubles take the top 53 bits, z >> 11 scaled
by 2^-53, uniform in [0, 1).  One standard complex Gaussian consumes exactly
two doubles (u1, u2) through the polar form

    r = sqrt(-2 log(1 - u1));  z = r (cos(2 pi u2) + i sin(2 pi u2)) / sqrt(2)

and matrices are filled row-major, so every artifact is pinned down by its
seed and shape.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SplitMix64", "random_psd", "random_state", "random_choi"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream; see the module docstring for the exact recurrence."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def complex_normal(self) -> complex:
        """Standard complex Gaussian (E|z|^2 = 1), two uniforms consumed."""
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        return complex(r * math.cos(2.0 * math.pi * u2),
                       r * math.sin(2.0 * math.pi * u2)) / math.sqrt(2.0)

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = self.complex_normal()
        return out


def random_psd(seed: int, d: int) -> np.ndarray:
    """Random PSD matrix X*X with trace normalized to d.

    X*X is summed by ``einsum``, which does not call BLAS, so the bytes do
    not depend on the BLAS kernel."""
    x = SplitMix64(seed).complex_matrix(d, d)
    s = np.einsum("ki,kj->ij", x.conj(), x)
    return s * (d / float(np.trace(s).real))


def random_state(seed: int, d: int) -> np.ndarray:
    """Random density matrix: X*X normalized to trace 1."""
    return random_psd(seed, d) / d


def random_choi(seed: int, d_in: int, d_out: int, tp: bool = False) -> np.ndarray:
    """Random CP Choi matrix, trace normalized to d_in.

    With ``tp`` the matrix is conjugated by C (x) I, C = B^(-1/2) for the
    partial trace B over the output factor, which makes the channel exactly
    trace preserving while staying CP.  X*X is summed as in
    :func:`random_psd`; the projection uses ``eigh`` and BLAS products.
    """
    n = d_in * d_out
    x = SplitMix64(seed).complex_matrix(n, n)
    s = np.einsum("ki,kj->ij", x.conj(), x)
    s = s * (d_in / float(np.trace(s).real))
    if not tp:
        return s
    s4 = s.reshape(d_in, d_out, d_in, d_out)
    b = np.einsum("krjr->kj", s4)
    w, v = np.linalg.eigh(0.5 * (b + b.conj().T))
    c = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    cc = np.kron(c, np.eye(d_out))
    out = cc @ s @ cc.conj().T
    return 0.5 * (out + out.conj().T)
