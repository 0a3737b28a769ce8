"""Quantum channels through the parameter coordinates of their Choi matrices.

A linear map Phi between matrix algebras is stored as the matrix of its
action on matrix units: ``action[(k, j), (l, m)] = Phi(E_lm)[k, j]`` with
row-major pair flattening, shape (d_out^2, d_in^2).  The Choi matrix is the
same data blocked the other way, ``S[block (k, j)] = Phi(E_kj)``, so the two
conversions are pure reindexings and round trip exactly.  Complete
positivity of Phi is positivity of S, which we test by parameter extraction
rather than by eigenvalues.

Kraus generators come from the scaled Cholesky factor of S.  Writing
U = G diag(L) for the unit upper factor G, we have S = U* U, and row n of U
reshaped row-major to d_in x d_out is a generator A_n of the channel in the
form Phi(rho) = sum_n A_n* rho A_n.  The package stores K_n = A_n*
(d_out x d_in), so the action reads Phi(rho) = sum_n K_n rho K_n* and trace
preservation is sum_n K_n* K_n = I.  The tag on every KrausSet records this
convention; ``row_stack`` rebuilds the factor whose columns-square is S.

The capacity functional is D(Phi) = -(1/N) log det S with N = d_in d_out,
evaluated on parameters as -(1/N)(sum_k log S_kk + sum log(1 - |Gamma|^2)),
in nats.  It is +infinity exactly when S is singular, and additive under
tensoring because the parameters of a tensor product split.

The qubit normal form (t, lambda) covers every binary channel up to unitary
rotations on both sides.  Its Choi matrix and the Choi matrix of its adjoint
have closed-form entries, and the parameters of the adjoint's (doubled) Choi
matrix have closed forms as well; ``qubit_nf_params`` evaluates those and
reports the eight inequalities (four diagonal signs, four contraction
bounds) that decide complete positivity, including the degenerate cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, ConsistencyError, maxnorm
from .params import (
    SchurParams,
    _entry_step,
    _extract,
    _logdet,
    _read_factor,
    defect,
    is_psd_via_params,
)

__all__ = [
    "LinearMap",
    "ChoiMatrix",
    "KrausSet",
    "QubitChannelNF",
    "QubitNFReport",
    "map_from_apply",
    "identity_channel",
    "depolarizing_channel",
    "choi_from_map",
    "map_from_choi",
    "apply",
    "adjoint",
    "is_trace_preserving",
    "is_unital",
    "is_completely_positive",
    "kraus_from_choi",
    "completeness_identity",
    "capacity_D",
    "choi_tensor",
    "qubit_nf_map",
    "qubit_nf_choi",
    "qubit_nf_params",
]

KRAUS_CONVENTION = ("Phi(rho) = sum_n K[n] @ rho @ K[n]*; "
                    "trace preserving iff sum_n K[n]* @ K[n] = I(d_in); "
                    "stack of row(K[n]*) is a factor A with S = A* A")


# ---------------------------------------------------------------------------
# Containers


def _check_dims(d_in: int, d_out: int) -> None:
    for name, value in (("d_in", d_in), ("d_out", d_out)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class LinearMap:
    """Linear map between matrix spaces, stored by its action on units.

    ``action`` has shape (d_out^2, d_in^2); column (l*d_in + m) is the
    image of the matrix unit E_lm flattened row-major.
    """

    d_in: int
    d_out: int
    action: np.ndarray

    def __post_init__(self):
        _check_dims(self.d_in, self.d_out)
        if self.action.shape != (self.d_out ** 2, self.d_in ** 2):
            raise ValueError(
                f"action shape {self.action.shape} does not match "
                f"d_in={self.d_in}, d_out={self.d_out}")


@dataclass(frozen=True)
class ChoiMatrix:
    """Block matrix [Phi(E_kj)] of size d_in*d_out, blocks d_out x d_out."""

    d_in: int
    d_out: int
    s: np.ndarray

    def __post_init__(self):
        _check_dims(self.d_in, self.d_out)
        n = self.d_in * self.d_out
        if self.s.shape != (n, n):
            raise ValueError(f"Choi matrix shape {self.s.shape}, expected {(n, n)}")


@dataclass(frozen=True)
class KrausSet:
    """Generators of a completely positive map, negligible generators dropped.

    Each generator has shape (d_out, d_in) and the channel acts as
    ``sum K rho K*``; ``convention`` records the validated placement of
    adjoints so downstream code never has to guess.
    """

    d_in: int
    d_out: int
    generators: tuple[np.ndarray, ...]
    convention: str = KRAUS_CONVENTION

    def row_stack(self) -> np.ndarray:
        """Rows row(K_n*) stacked; satisfies S = A* A for the source Choi."""
        n = self.d_in * self.d_out
        if not self.generators:
            return np.zeros((0, n), dtype=np.complex128)
        return np.stack([k.conj().T.reshape(n) for k in self.generators])


@dataclass(frozen=True)
class QubitChannelNF:
    """Qubit-channel normal form: unital part diag(lam), translation t.

    The map sends I to I + t1*sigma1 + t2*sigma2 + t3*sigma3 and sigma_k to
    lam_k*sigma_k.  Every binary channel is unitarily equivalent to one of
    these on both sides.
    """

    t: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class QubitNFReport:
    """Eight-inequality complete-positivity report for the qubit normal form.

    ``s_diag`` holds the doubled adjoint-Choi diagonal (S11..S44); ``gamma``
    maps 1-based index pairs to closed-form parameters, with ``None`` for
    entries masked by a vanishing divisor; ``margins`` are the eight slack
    values (S11, S22, S33, S44, 1-|G23|, 1-|G13|, 1-|G24|, 1-|G14|), each
    nonnegative exactly when its inequality holds, masked bounds counting as
    slack 1; ``notes`` lists every violated bound or residual, so ``cp``
    holds exactly when it is empty.
    """

    s_diag: np.ndarray
    gamma: dict[tuple[int, int], complex | None]
    margins: tuple[float, ...]
    cp: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Map <-> Choi plumbing


def map_from_apply(d_in: int, d_out: int, phi) -> LinearMap:
    """Tabulate a callable on matrix units into a LinearMap."""
    action = np.zeros((d_out ** 2, d_in ** 2), dtype=np.complex128)
    for l in range(d_in):
        for m in range(d_in):
            e = np.zeros((d_in, d_in), dtype=np.complex128)
            e[l, m] = 1.0
            out = np.asarray(phi(e), dtype=np.complex128)
            if out.shape != (d_out, d_out):
                raise ValueError(f"phi(E_{l}{m}) has shape {out.shape}, "
                                 f"expected {(d_out, d_out)}")
            action[:, l * d_in + m] = out.reshape(d_out ** 2)
    return LinearMap(d_in, d_out, action)


def identity_channel(d: int) -> LinearMap:
    return LinearMap(d, d, np.eye(d * d, dtype=np.complex128))


def depolarizing_channel(d: int) -> LinearMap:
    """Completely depolarizing map X -> tr(X) I/d."""
    unit = np.eye(d, dtype=np.complex128).reshape(d * d)
    return LinearMap(d, d, np.outer(unit, unit) / d)


def choi_from_map(m: LinearMap) -> ChoiMatrix:
    """Reblock the action matrix into [Phi(E_kj)]; exact inverse of
    :func:`map_from_choi`."""
    n = m.d_in * m.d_out
    m4 = m.action.reshape(m.d_out, m.d_out, m.d_in, m.d_in)
    return ChoiMatrix(m.d_in, m.d_out, m4.transpose(2, 0, 3, 1).reshape(n, n).copy())


def map_from_choi(c: ChoiMatrix) -> LinearMap:
    s4 = c.s.reshape(c.d_in, c.d_out, c.d_in, c.d_out)
    action = s4.transpose(1, 3, 0, 2).reshape(c.d_out ** 2, c.d_in ** 2)
    return LinearMap(c.d_in, c.d_out, action.copy())


def apply(m: LinearMap, x: np.ndarray) -> np.ndarray:
    """Image of the d_in x d_in matrix ``x`` under the map."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (m.d_in, m.d_in):
        raise ValueError(f"input shape {x.shape}, expected {(m.d_in, m.d_in)}")
    return (m.action @ x.reshape(m.d_in ** 2)).reshape(m.d_out, m.d_out)


def adjoint(m: LinearMap) -> LinearMap:
    """Adjoint for the trace pairing <A, B> = tr(A* B).

    ``tr(A* Phi(B)) == tr(adjoint(Phi)(A)* B)``; swaps d_in and d_out.
    """
    return LinearMap(m.d_out, m.d_in, m.action.conj().T.copy())


# ---------------------------------------------------------------------------
# Structural checks


def is_trace_preserving(m: LinearMap) -> bool:
    """tr(Phi(x)) = tr(x), checked as adjoint(Phi)(I) = I."""
    eye_out = np.eye(m.d_out, dtype=np.complex128)
    eye_in = np.eye(m.d_in, dtype=np.complex128)
    return maxnorm(apply(adjoint(m), eye_out) - eye_in) <= DEFAULT_TOL.entry(1.0)


def is_unital(m: LinearMap) -> bool:
    eye_in = np.eye(m.d_in, dtype=np.complex128)
    eye_out = np.eye(m.d_out, dtype=np.complex128)
    return maxnorm(apply(m, eye_in) - eye_out) <= DEFAULT_TOL.entry(1.0)


def is_completely_positive(c: ChoiMatrix) -> bool:
    """Positivity of the Choi matrix, via parameter extraction."""
    return is_psd_via_params(c.s)


# ---------------------------------------------------------------------------
# Kraus generators


def kraus_from_choi(c: ChoiMatrix) -> KrausSet:
    """Kraus generators from the parameter-driven Cholesky factor, read off
    the lattice of the one extraction (no second pass over the bands).

    Row n of U = G diag(L), reshaped row-major to d_in x d_out, is a
    generator A_n with Phi(rho) = sum A_n* rho A_n; the returned set stores
    K_n = A_n* per the module convention.  Rows too small to show in the
    check below are dropped (rounding noise on rank-deficient input).  The
    factorization S = A* A is verified before returning; since the map is an
    exact reindexing of S, this also fixes the action on every matrix unit,
    so a KrausSet is trustworthy by construction.  Propagates NotPSDError
    when the Choi matrix is not PSD.
    """
    return _kraus_from_params(c, *_choi_params(c))


def _choi_params(c: ChoiMatrix):
    """The one extraction that Kraus generators and capacity both read:
    ``(S, params, lattice)``."""
    return _extract(c.s)


def _kraus_from_params(c, s, params, lat) -> KrausSet:
    scale = maxnorm(s)
    u = _read_factor(params, lat) * params.diag[None, :]
    check_tol = DEFAULT_TOL.abs_eps * max(1.0, scale)
    # Row u_n adds u_n* u_n, of max-norm max|u_n|^2, to A* A, so the rows
    # dropped here add at most check_tol together: the check cannot see them.
    gens = tuple(row.reshape(c.d_in, c.d_out).conj().T.copy() for row in u
                 if maxnorm(row) ** 2 * u.shape[0] > check_tol)
    ks = KrausSet(c.d_in, c.d_out, gens)

    a_stack = ks.row_stack()
    resid = maxnorm(a_stack.conj().T @ a_stack - s)
    if resid > check_tol:
        raise ConsistencyError(
            f"Kraus factor does not reproduce the Choi matrix: residual {resid:.3e}")
    return ks


def completeness_identity(ks: KrausSet) -> str | None:
    """Which quadratic identity the generators satisfy, if any.

    Returns ``"sum K*K = I"`` (trace preservation under the stored
    convention), ``"sum KK* = I"`` (unitality), ``"both"``, or ``None``.
    """
    left = sum((k.conj().T @ k for k in ks.generators),
               np.zeros((ks.d_in, ks.d_in), dtype=np.complex128))
    right = sum((k @ k.conj().T for k in ks.generators),
                np.zeros((ks.d_out, ks.d_out), dtype=np.complex128))
    left_ok = maxnorm(left - np.eye(ks.d_in)) <= DEFAULT_TOL.entry(1.0)
    right_ok = maxnorm(right - np.eye(ks.d_out)) <= DEFAULT_TOL.entry(1.0)
    if left_ok and right_ok:
        return "both"
    if left_ok:
        return "sum K*K = I"
    if right_ok:
        return "sum KK* = I"
    return None


# ---------------------------------------------------------------------------
# Capacity


def capacity_D(c: ChoiMatrix) -> float:
    """-(1/N) log det of the Choi matrix, from its parameters, in nats.

    Equals -(1/N)(sum_k log S_kk + sum log(1 - |Gamma_kj|^2)) over defined
    parameters; +infinity when the Choi matrix is singular, judged at
    rounding resolution (``CIRCLE_SNAP``) by the same rule as
    :func:`~schurq.params.det_from_params`, so that rank-deficient Choi
    matrices assembled in floating point are still flagged.  Requires a
    completely positive input (NotPSDError propagates otherwise).
    """
    return _capacity_from_params(_choi_params(c)[1])


def _capacity_from_params(params: SchurParams) -> float:
    return 0.0 - _logdet(params) / params.dim  # +0.0, not -0.0, when det S = 1


def choi_tensor(c1: ChoiMatrix, c2: ChoiMatrix) -> ChoiMatrix:
    """Choi matrix of the tensor-product channel.

    Matrix units of the composite input factor as E_kj (x) E_lm under the
    row-major Kronecker convention, so the composite Choi matrix is an
    eight-index reshuffle of the two factors, not their plain Kronecker
    product.
    """
    s1 = c1.s.reshape(c1.d_in, c1.d_out, c1.d_in, c1.d_out)
    s2 = c2.s.reshape(c2.d_in, c2.d_out, c2.d_in, c2.d_out)
    out = np.einsum("KRJS,krjs->KkRrJjSs", s1, s2)
    d_in = c1.d_in * c2.d_in
    d_out = c1.d_out * c2.d_out
    n = d_in * d_out
    return ChoiMatrix(d_in, d_out, out.reshape(n, n).copy())


# ---------------------------------------------------------------------------
# Qubit normal form


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


def _nf_vectors(nf: QubitChannelNF) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(nf.t, dtype=float).reshape(3)
    lam = np.asarray(nf.lam, dtype=float).reshape(3)
    return t, lam


def qubit_nf_map(nf: QubitChannelNF) -> LinearMap:
    """The normal-form map itself: I -> I + t.sigma, sigma_k -> lam_k sigma_k."""
    t, lam = _nf_vectors(nf)
    eye = np.eye(2, dtype=np.complex128)

    def phi(x):
        c0 = 0.5 * np.trace(x)
        out = c0 * eye
        for k in range(3):
            ck = 0.5 * np.trace(_PAULI[k] @ x)
            out = out + (c0 * t[k] + lam[k] * ck) * _PAULI[k]
        return out

    return map_from_apply(2, 2, phi)


def qubit_nf_choi(nf: QubitChannelNF) -> tuple[ChoiMatrix, ChoiMatrix]:
    """Closed-form Choi matrices of the normal form and of its adjoint.

    They equal :func:`choi_from_map` of :func:`qubit_nf_map` and of its
    :func:`adjoint`; the tests check that.
    """
    t, lam = _nf_vectors(nf)
    t1, t2, t3 = t
    l1, l2, l3 = lam
    a = t1 - 1j * t2
    s_phi = 0.5 * np.array([
        [1 + t3 + l3, a, 0.0, l1 + l2],
        [np.conj(a), 1 - t3 - l3, l1 - l2, 0.0],
        [0.0, l1 - l2, 1 + t3 - l3, a],
        [l1 + l2, 0.0, np.conj(a), 1 - t3 + l3],
    ], dtype=np.complex128)
    s_hat = 0.5 * np.array([
        [1 + t3 + l3, 0.0, np.conj(a), l1 + l2],
        [0.0, 1 + t3 - l3, l1 - l2, np.conj(a)],
        [a, l1 - l2, 1 - t3 - l3, 0.0],
        [l1 + l2, a, 0.0, 1 - t3 + l3],
    ], dtype=np.complex128)
    return ChoiMatrix(2, 2, s_phi), ChoiMatrix(2, 2, s_hat)


def qubit_nf_params(nf: QubitChannelNF) -> tuple[SchurParams, QubitNFReport]:
    """Closed-form parameters of the doubled adjoint Choi matrix.

    Works on S = 2 * S_adjoint, whose corner entries vanish (S_12 = S_34 = 0),
    which collapses the generic recursion to short closed forms:

        S11 = 1 + t3 + lam3        S22 = 1 + t3 - lam3
        S33 = 1 - t3 - lam3        S44 = 1 - t3 + lam3
        G23 = (lam1 - lam2) / sqrt(S22 S33)
        G13 = S13 / (sqrt(S11 S33) D23)       with S13 = t1 + i t2
        G24 = S24 / (sqrt(S22 S44) D23)       with S24 = t1 + i t2
        G14 = (S14 / sqrt(S11 S44) + G13 conj(G23) G24) / (D13 D24)
                                              with S14 = lam1 + lam2

    (D = defect).  Divisors below the degeneracy threshold mask the entry
    and demand the corresponding residual identity instead; e.g. a boundary
    |G23| = 1 forces t1 = t2 = 0, and boundary |G13| or |G24| forces
    S14 = -sqrt(S11) G13 conj(G23) G24 sqrt(S44).  Never raises: the report
    carries the complete-positivity verdict, the eight inequality margins,
    and notes for every violated bound or residual.  Where defined, the
    parameters agree with the generic extraction on the same matrix.
    """
    t, lam = _nf_vectors(nf)
    t1, t2, t3 = t
    l1, l2, l3 = lam
    sdiag = np.array([1 + t3 + l3, 1 + t3 - l3, 1 - t3 - l3, 1 - t3 + l3])
    s13 = t1 + 1j * t2
    s24 = t1 + 1j * t2
    s23 = l1 - l2
    s14 = l1 + l2

    scale = max(maxnorm(sdiag), abs(s13), abs(s23), abs(s14))
    notes: list[str] = []  # one per violated inequality or residual

    for k in range(4):
        if sdiag[k] < -DEFAULT_TOL.entry(scale):
            notes.append(f"S{k + 1}{k + 1} = {sdiag[k]:.6g} is negative")
    lvec = np.sqrt(np.clip(sdiag, 0.0, None))

    gmat = np.zeros((4, 4), dtype=np.complex128)
    defined = np.zeros((4, 4), dtype=bool)
    gamma: dict[tuple[int, int], complex | None] = {}

    def place(k: int, j: int, cov: complex, dprod: float):
        """One recursion step: extract, clamp, or mask gamma_(k+1)(j+1) from
        the residual covariance ``cov`` (the entry minus its known part)."""
        label = (k + 1, j + 1)
        val, _, _, masked, failure = _entry_step(cov, lvec[k] * lvec[j], dprod, scale)
        val = None if masked else complex(val)
        gamma[label] = val
        if failure is not None:
            notes.append(
                f"|Gamma{label[0]}{label[1]}| = {failure[2]:.6g} exceeds 1"
                if val is not None else
                f"degenerate entry S{label[0]}{label[1]} inconsistent "
                f"(residual {failure[2]:.6g})")
        if val is None:
            return
        mod = abs(val)
        gmat[k, j] = val / mod if mod > 1.0 else val
        defined[k, j] = True

    # Band 1.  S12 = S34 = 0, so those parameters are zero whenever defined.
    place(0, 1, 0.0, 1.0)
    place(1, 2, s23, 1.0)
    place(2, 3, 0.0, 1.0)
    d23 = float(defect(gmat[1, 2]))
    # Band 2.  The known terms vanish because Gamma12 = Gamma34 = 0.
    place(0, 2, s13, d23)
    place(1, 3, s24, d23)
    d13 = float(defect(gmat[0, 2]))
    d24 = float(defect(gmat[1, 3]))
    # Band 3.  Surviving known term: -G13 conj(G23) G24.
    known14 = -gmat[0, 2] * np.conj(gmat[1, 2]) * gmat[1, 3]
    place(0, 3, s14 - lvec[0] * lvec[3] * known14, d13 * d24)

    params = SchurParams(4, lvec, gmat, defined)
    params.validate()

    def slack(label: tuple[int, int]) -> float:
        return 1.0 - abs(gamma[label]) if gamma[label] is not None else 1.0

    margins = (float(sdiag[0]), float(sdiag[1]), float(sdiag[2]), float(sdiag[3]),
               slack((2, 3)), slack((1, 3)), slack((2, 4)), slack((1, 4)))
    report = QubitNFReport(
        s_diag=sdiag,
        gamma=gamma,
        margins=margins,
        cp=not notes,
        notes=tuple(notes),
    )
    return params, report
