import math
from dataclasses import dataclass

import corpus
import numpy as np
import pytest

from schurq import states
from schurq.linalg import (
    DEFAULT_TOL,
    ConsistencyError,
    NotPSDError,
    kron,
    maxnorm,
    reference_eigenvalues,
)
from schurq.params import SchurParams, forward
from schurq.states import (
    SeparabilityVerdict,
    bell_state,
    entropy_E,
    entropy_E0,
    is_pure,
    is_separable_params,
    is_separable_ppt,
    partial_transpose,
    pure_vector,
    state_from_coeffs,
    state_from_matrix,
    tensor_params,
    werner_state,
)

SQ2 = 1.0 / math.sqrt(2.0)


def _random_pure(rng, d, support=None):
    v = np.zeros(d, dtype=complex)
    idx = np.arange(d) if support is None else np.asarray(support)
    v[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_mixed(rng, d, terms=3):
    w = rng.uniform(0.2, 1.0, size=terms)
    w /= w.sum()
    rho = np.zeros((d, d), dtype=complex)
    for t in range(terms):
        rho += w[t] * _random_pure(rng, d)
    return rho


def _random_full_rank(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    rho /= rho.trace().real
    return 0.5 * rho + 0.5 * np.eye(d) / d


# ---------------------------------------------------------------------------
# basis: the reference the closed-form coefficients are checked against


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
    """The self-adjoint basis for dimension ``d`` (>= 2), built entry by entry.

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


def test_basis_d2_is_pauli():
    b = build_basis(2)
    np.testing.assert_array_equal(b.h(1), np.eye(2))
    np.testing.assert_array_equal(b.f(1, 2), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(b.f(2, 1), [[0, -1j], [1j, 0]])
    np.testing.assert_array_equal(b.h(2), [[1, 0], [0, -1]])


def test_basis_d3_gell_mann_diagonals():
    b = build_basis(3)
    np.testing.assert_array_equal(b.h(2), np.diag([1, -1, 0]))
    np.testing.assert_allclose(b.h(3), np.diag([1, 1, -2]) / np.sqrt(3),
                               atol=1e-15)


def test_basis_orthogonal_and_counted():
    for d in (2, 3, 4, 5):
        b = build_basis(d)
        assert len(b.elements) == d * d
        for i, x in enumerate(b.elements):
            assert maxnorm(x - x.conj().T) == 0.0
            for y in b.elements[i + 1:]:
                assert abs(np.trace(x @ y)) < 1e-14


def test_basis_pair_structure():
    b = build_basis(4)
    f = b.f(2, 4)
    assert f[1, 3] == 1 and f[3, 1] == 1 and np.count_nonzero(f) == 2
    g = b.f(4, 2)
    assert g[1, 3] == -1j and g[3, 1] == 1j


def test_basis_rejects_small_dimension():
    with pytest.raises(ValueError):
        build_basis(1)


# ---------------------------------------------------------------------------
# coefficients


def test_coeffs_round_trip_through_basis_sum():
    rng = np.random.default_rng(10)
    for d in (2, 3, 5):
        b = build_basis(d)
        rho = _random_mixed(rng, d)
        st = state_from_matrix(rho)
        rebuilt = np.eye(d, dtype=complex)
        for m in range(2, d + 1):
            rebuilt += st.beta[m - 2] * b.h(m)
        for k in range(1, d + 1):
            for j in range(1, d + 1):
                if k != j:
                    rebuilt += st.gamma[k - 1, j - 1] * b.f(k, j)
        np.testing.assert_allclose(rebuilt / d, rho, atol=1e-12)

        st2 = state_from_coeffs(d, st.beta, st.gamma)
        np.testing.assert_allclose(st2.rho, rho, atol=1e-12)
        np.testing.assert_allclose(st2.beta, st.beta, atol=1e-12)
        np.testing.assert_allclose(st2.gamma, st.gamma, atol=1e-12)


def test_state_from_coeffs_maximally_mixed():
    st = state_from_coeffs(2, np.zeros(1), np.zeros((2, 2)))
    np.testing.assert_allclose(st.rho, np.eye(2) / 2, atol=1e-15)
    assert st.params.defined[0, 1] and st.params.gamma[0, 1] == 0


def test_state_from_coeffs_cylinder_boundary_masks_parameter():
    st = state_from_coeffs(2, np.array([1.0]), np.zeros((2, 2)))
    np.testing.assert_allclose(st.rho, np.diag([1.0, 0.0]), atol=1e-15)
    assert not st.params.defined[0, 1]
    assert st.params.gamma[0, 1] == 0


def test_state_from_coeffs_d3_band_relation():
    gamma = np.zeros((3, 3))
    gamma[0, 1] = gamma[1, 0] = 0.3
    st = state_from_coeffs(3, np.zeros(2), gamma)
    # All scaled diagonal entries are 1, so g12 = gamma12 - i*gamma21.
    assert abs(st.params.gamma[0, 1] - (0.3 - 0.3j)) < 1e-12


def test_state_from_coeffs_rejects_outside_cylinder():
    gamma = np.zeros((2, 2))
    gamma[0, 1] = 0.8
    with pytest.raises(NotPSDError):
        state_from_coeffs(2, np.array([0.8]), gamma)


def test_state_from_coeffs_rejects_bad_coefficients():
    """Shape, finiteness and diagonal errors are ValueErrors, not NotPSDError."""
    zero = np.zeros((3, 3))
    diag = zero.copy()
    diag[1, 1] = 0.1
    nan = zero.copy()
    nan[0, 1] = np.nan
    for beta, gamma, reason in (
            (np.zeros(3), zero, r"beta must have shape \(2,\)"),
            (np.zeros(2), np.zeros((2, 2)), r"gamma must have shape \(3, 3\)"),
            (np.array([0.0, np.inf]), zero, "non-finite coefficients"),
            (np.zeros(2), nan, "non-finite coefficients"),
            (np.zeros(2), diag, "no diagonal degrees of freedom")):
        with pytest.raises(ValueError, match=reason) as info:
            state_from_coeffs(3, beta, gamma)
        assert not isinstance(info.value, NotPSDError)


def test_state_from_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        state_from_matrix(np.eye(2))


# Margins below this size are too close to call for the explicit d = 2 and
# d = 3 conditions; away from it they must agree with the band test.
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


def test_fast_paths_match_generic_verdict():
    """The paper's explicit d = 2 cylinder and d = 3 Gell-Mann conditions
    agree with the band test wherever their margin is decisive."""
    rng = np.random.default_rng(11)
    seen_bad = 0
    for _ in range(300):
        d = int(rng.integers(2, 4))
        beta = rng.uniform(-1.2, 1.2, size=d - 1)
        gamma = rng.uniform(-0.7, 0.7, size=(d, d))
        np.fill_diagonal(gamma, 0.0)
        margin = (_cylinder_margin if d == 2 else _gell_mann_margin)(beta, gamma)
        try:
            state_from_coeffs(d, beta, gamma)
            accepted = True
        except NotPSDError:
            accepted = False
            seen_bad += 1
        # Every seeded draw is decisive (|margin| >= 2.8e-3).
        assert margin is not None and abs(margin) > _FAST_PATH_SLACK
        assert accepted == (margin > 0.0), (d, beta, gamma, margin)
    assert 0 < seen_bad < 300


# ---------------------------------------------------------------------------
# purity


def test_is_pure_basic_cases():
    assert is_pure(state_from_matrix(np.diag([1.0, 0.0, 0.0])))
    assert not is_pure(state_from_matrix(np.eye(3) / 3))
    assert not is_pure(state_from_matrix(np.diag([0.75, 0.25])))


def _near_rank_one_chain(g02):
    """d = 4 state from parameters: L_k = 1/2, every consecutive parameter
    1 - 1e-6, gamma[0, 2] = ``g02``, the rest 0."""
    g = np.zeros((4, 4), dtype=complex)
    g[[0, 1, 2], [1, 2, 3]] = 1.0 - 1e-6
    g[0, 2] = g02
    return state_from_matrix(forward(SchurParams(4, np.full(4, 0.5), g)))


def test_is_pure_second_rule_non_consecutive_parameters_vanish():
    """Both states have consecutive moduli within sqrt(abs_eps) = 1e-5 of 1,
    so the first rule holds; a non-consecutive parameter of 0.5 breaks the
    second, while one of 0 keeps it (pure within sqrt(abs_eps))."""
    mu = math.sqrt(DEFAULT_TOL.abs_eps)
    for g02, pure in ((0.5, False), (0.0, True)):
        st = _near_rank_one_chain(g02)
        g = st.params.gamma
        assert st.params.defined[0, 2]
        assert all(1.0 - mu < abs(g[k, k + 1]) < 1.0 for k in range(3))
        assert abs(abs(g[0, 2]) - g02) <= mu
        assert is_pure(st) is pure


def test_bell_state_parameter_pattern():
    st = bell_state()
    assert is_pure(st)
    defined = np.argwhere(st.params.defined)
    assert [tuple(x) for x in defined] == [(0, 3)]
    assert abs(abs(st.params.gamma[0, 3]) - 1.0) < 1e-12


def test_pure_vector_hand_cases():
    np.testing.assert_allclose(
        pure_vector(state_from_matrix(np.diag([1.0, 0.0]))), [1, 0], atol=1e-15)
    np.testing.assert_allclose(
        pure_vector(state_from_matrix(np.diag([0.0, 1.0, 0.0]))), [0, 1, 0],
        atol=1e-15)
    v = pure_vector(bell_state())
    np.testing.assert_allclose(v, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_pure_vector_requires_purity():
    with pytest.raises(ValueError):
        pure_vector(state_from_matrix(np.eye(2) / 2))


def test_purity_agrees_with_rank_one_oracle():
    rng = np.random.default_rng(12)
    for trial in range(200):
        d = int(rng.integers(2, 7))
        if trial % 2 == 0:
            rho = _random_pure(rng, d)
        else:
            rho = _random_mixed(rng, d)
        st = state_from_matrix(rho)
        lam = np.sort(reference_eigenvalues(rho))
        oracle = lam[-2] <= 1e-10 if d > 1 else True
        assert is_pure(st) == oracle
        if oracle:
            v = pure_vector(st)
            assert maxnorm(np.outer(v, v.conj()) - rho) <= 1e-10


def test_purity_with_interleaved_zero_diagonal():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(3, 8))
        k = int(rng.integers(2, d + 1))
        support = np.sort(rng.choice(d, size=k, replace=False))
        rho = _random_pure(rng, d, support=support)
        st = state_from_matrix(rho)
        assert is_pure(st)
        v = pure_vector(st)
        assert maxnorm(np.outer(v, v.conj()) - rho) <= 1e-10
        assert np.all(v[np.setdiff1d(np.arange(d), support)] == 0)
        assert v[support[0]].imag == 0 and v[support[0]].real > 0


@pytest.mark.parametrize("amplitude", [1e-4, 1e-5, 1e-7])
def test_purity_with_one_small_amplitude(amplitude):
    """A pure state with one amplitude scaled down is pure: the zero rule is
    relative (``CIRCLE_SNAP`` times the largest diagonal), so a diagonal of
    about 1e-10 still counts as support, and its parameters are on the
    circle in the extraction's unit-diagonal coordinates.  A diagonal of
    about 1e-14 is below the threshold, but its row carries entries of
    about 1e-7, so it is support too, and nothing is dropped."""
    rng = np.random.default_rng(3)
    for d in range(2, 10):
        for _ in range(20):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v[rng.integers(d)] *= amplitude
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            st = state_from_matrix(rho)
            assert is_pure(st)
            u = pure_vector(st)
            assert maxnorm(np.outer(u, u.conj()) - rho) <= 1e-14


def test_noisy_zero_rows_follow_the_zero_rule():
    """States on a proper subset of the indices, rotated by a unitary and
    back, carry rounding noise in their zero rows.  The zero rule counts
    those rows as zero: every state is accepted, and the rank-one ones are
    pure.  (A rule that takes only exact zeros as zero rejects 212 of these
    360 states and calls 42 of the 272 rank-one states mixed.)"""
    rng = np.random.default_rng(360)
    rank_one = 0
    for d in range(3, 12):
        for i in range(40):
            rho = corpus.noisy_zero_rows(rng, d, rank=1 if i % 2 == 0 else None)
            st = state_from_matrix(rho)
            if np.sort(reference_eigenvalues(rho))[-2] <= 1e-12:
                rank_one += 1
                assert is_pure(st)
    assert rank_one >= 250


# ---------------------------------------------------------------------------
# entropy


def test_entropy_maximally_mixed():
    for d in (2, 3, 5):
        st = state_from_matrix(np.eye(d) / d)
        assert abs(entropy_E(st) - math.log(1.0 / d)) < 1e-12
        assert abs(entropy_E0(st) - math.log(1.0 / d)) < 1e-12


def test_entropy_diagonal_hand_value():
    st = state_from_matrix(np.diag([0.75, 0.25]))
    want = 0.5 * (math.log(0.75) + math.log(0.25))
    assert abs(entropy_E(st) - want) < 1e-12


def test_entropy_pure_states():
    rng = np.random.default_rng(14)
    for d in (2, 4):
        st = state_from_matrix(_random_pure(rng, d))
        assert entropy_E(st) == -math.inf
        assert abs(entropy_E0(st)) <= 1e-10


def test_entropy_E0_rank_deficient_hand_value():
    st = state_from_matrix(np.diag([0.5, 0.5, 0.0]))
    assert abs(entropy_E0(st) - 2.0 * math.log(0.5) / 3.0) < 1e-12


def test_entropy_matches_eigenvalue_oracle():
    rng = np.random.default_rng(15)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        st = state_from_matrix(_random_full_rank(rng, d))
        lam = reference_eigenvalues(st.rho)
        want = float(np.sum(np.log(lam)) / d)
        got = entropy_E(st)
        assert abs(got - want) <= 1e-8
        assert abs(entropy_E0(st) - want) <= 1e-8
        # sharp upper bound through the diagonal, then -log d
        diag_bound = float(np.sum(np.log(st.rho.diagonal().real)) / d)
        assert got <= diag_bound + 1e-12
        assert diag_bound <= -math.log(d) + 1e-9


def test_entropy_additive_over_tensor_products():
    rng = np.random.default_rng(16)
    for _ in range(50):
        d1 = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 4))
        r1 = _random_full_rank(rng, d1)
        r2 = _random_full_rank(rng, d2)
        st1, st2 = state_from_matrix(r1), state_from_matrix(r2)
        st = state_from_matrix(kron(r1, r2))
        assert abs(entropy_E(st) - entropy_E(st1) - entropy_E(st2)) <= 1e-8
        assert abs(entropy_E0(st) - entropy_E0(st1) - entropy_E0(st2)) <= 1e-8


def test_entropy_E0_zero_implies_pure():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        st = state_from_matrix(_random_mixed(rng, d))
        if abs(entropy_E0(st)) <= 1e-10:
            assert is_pure(st)


# ---------------------------------------------------------------------------
# tensor products


def _two_by_two(rng, radius=0.9):
    gamma = np.zeros((2, 2), dtype=complex)
    while True:
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if abs(z) < radius:
            gamma[0, 1] = z
            break
    diag = np.abs(rng.normal(size=2)) + 0.2
    return SchurParams(2, diag, gamma)


def test_tensor_blocks_gram_identity():
    rng = np.random.default_rng(18)
    d1, d2 = 3, 2
    gamma = np.zeros((d1, d1), dtype=complex)
    gamma[0, 1], gamma[0, 2], gamma[1, 2] = 0.3, 0.2 - 0.1j, -0.4j
    p1 = SchurParams(d1, np.array([1.0, 0.7, 1.3]), gamma)
    p2 = _two_by_two(rng)
    s1, s2 = forward(p1), forward(p2)
    flat = tensor_params(p1, p2)
    assert flat.dim == d1 * d2
    np.testing.assert_allclose(forward(flat), kron(s1, s2), atol=1e-9)


def _tensor_gammas(a, b, diag1=None, diag2=None):
    g1 = np.zeros((2, 2), dtype=complex)
    g1[0, 1] = a
    g2 = np.zeros((2, 2), dtype=complex)
    g2[0, 1] = b
    l1 = np.ones(2) if diag1 is None else diag1
    l2 = np.ones(2) if diag2 is None else diag2
    p1 = SchurParams(2, l1, g1)
    p2 = SchurParams(2, l2, g2)
    return tensor_params(p1, p2).gamma


def test_tensor_two_qubit_closed_forms():
    rng = np.random.default_rng(19)
    for _ in range(100):
        a = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        b = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if abs(a) > 0.9 or abs(b) > 0.9:
            continue
        l1 = np.abs(rng.normal(size=2)) + 0.2
        l2 = np.abs(rng.normal(size=2)) + 0.2
        g = _tensor_gammas(a, b, l1, l2)
        q = np.sqrt(1 - abs(b) ** 2) / np.sqrt(1 - abs(a) ** 2 * abs(b) ** 2)
        assert abs(g[0, 1] - b) <= 1e-12
        assert abs(g[2, 3] - b) <= 1e-12
        assert abs(g[1, 2] - a * np.conj(b)) <= 1e-12
        assert abs(g[0, 2] - a * q) <= 1e-12
        assert abs(g[1, 3] - a * q) <= 1e-12
        assert abs(g[0, 3] - (-a * b)) <= 1e-12


def test_tensor_hand_values():
    g = _tensor_gammas(0.5, 0.5)
    assert abs(g[0, 3] - (-0.25)) < 1e-14
    want = 0.5 * math.sqrt(0.75) / math.sqrt(15.0 / 16.0)
    assert abs(g[0, 2] - want) < 1e-14
    g0 = _tensor_gammas(0.6, 0.0)
    assert abs(g0[1, 2]) < 1e-14 and abs(g0[0, 2] - 0.6) < 1e-14


def test_tensor_with_identity_spreads_parameters():
    g1 = np.zeros((2, 2), dtype=complex)
    g1[0, 1] = 0.3 + 0.4j
    p1 = SchurParams(2, np.ones(2), g1)
    p2 = SchurParams(2, np.ones(2), np.zeros((2, 2), dtype=complex))
    g = tensor_params(p1, p2).gamma
    assert abs(g[0, 2] - (0.3 + 0.4j)) < 1e-12
    assert abs(g[1, 3] - (0.3 + 0.4j)) < 1e-12
    for k, j in ((0, 1), (2, 3), (1, 2), (0, 3)):
        assert abs(g[k, j]) < 1e-12


def test_tensor_dimension_mismatch():
    rng = np.random.default_rng(20)
    p2 = _two_by_two(rng)
    with pytest.raises(ValueError, match="inconsistent shapes"):
        SchurParams(2, np.ones(3), p2.gamma)  # three diagonal factors for a 2x2 matrix


# ---------------------------------------------------------------------------
# separability


def test_partial_transpose_product_state():
    rng = np.random.default_rng(21)
    r1 = _random_mixed(rng, 2)
    r2 = _random_mixed(rng, 3)
    st = state_from_matrix(kron(r1, r2))
    np.testing.assert_allclose(partial_transpose(st, (2, 3)),
                               kron(r1, r2.T), atol=1e-14)


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(bell_state(), (2, 2))
    lam = np.sort(reference_eigenvalues(pt))
    np.testing.assert_allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_fixed_points():
    rng = np.random.default_rng(22)
    st = state_from_matrix(_random_mixed(rng, 4))
    pt = partial_transpose(st, (2, 2))
    ptpt = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    np.testing.assert_allclose(ptpt, st.rho, atol=1e-15)
    mm = state_from_matrix(np.eye(4) / 4)
    np.testing.assert_allclose(partial_transpose(mm, (2, 2)), mm.rho,
                               atol=1e-15)


def test_ppt_werner_hand_values():
    v = is_separable_ppt(werner_state(0.5))
    assert not v.separable
    assert abs(v.witness - (1 - 3 * 0.5) / 4) < 1e-12
    v = is_separable_ppt(werner_state(0.25))
    assert v.separable
    assert abs(v.witness - (1 - 3 * 0.25) / 4) < 1e-12


def test_ppt_flip_at_one_third():
    for eps in (1e-3, 5e-3):
        assert is_separable_ppt(werner_state(1 / 3 - eps)).separable
        assert not is_separable_ppt(werner_state(1 / 3 + eps)).separable


def test_ppt_product_states_separable():
    rng = np.random.default_rng(23)
    for d2 in (2, 3):
        r = kron(_random_mixed(rng, 2), _random_mixed(rng, d2))
        v = is_separable_ppt(state_from_matrix(r), (2, d2))
        assert v.separable and v.witness >= -1e-12


def test_ppt_detects_embedded_bell_in_2x3():
    v = np.zeros(6, dtype=complex)
    v[0] = v[4] = SQ2  # |0,0> + |1,1> inside 2 x 3
    st = state_from_matrix(np.outer(v, v.conj()))
    verdict = is_separable_ppt(st, (2, 3))
    assert not verdict.separable and verdict.witness < -0.4


def test_ppt_rejects_unsupported_dims():
    rng = np.random.default_rng(24)
    st = state_from_matrix(_random_mixed(rng, 9))
    with pytest.raises(ValueError):
        is_separable_ppt(st, (3, 3))


def test_params_separability_named_cases():
    assert is_separable_params(state_from_matrix(np.diag([0.4, 0.3, 0.2, 0.1]))).separable
    rng = np.random.default_rng(25)
    prod = state_from_matrix(kron(_random_mixed(rng, 2), _random_mixed(rng, 2)))
    assert is_separable_params(prod).separable
    w = is_separable_params(werner_state(0.9))
    assert not w.separable
    assert isinstance(w.witness, str)
    assert not is_separable_params(bell_state()).separable


def test_params_separability_agrees_with_ppt():
    rng = np.random.default_rng(26)
    for trial in range(60):
        if trial % 3 == 2:
            # mostly-pure mixtures are usually entangled
            rho = 0.9 * _random_pure(rng, 4) + 0.1 * _random_mixed(rng, 4)
            rho /= rho.trace().real
        else:
            rho = _random_mixed(rng, 4, terms=6)
        st = state_from_matrix(rho)
        got = is_separable_params(st)
        want = is_separable_ppt(st)
        assert got.separable == want.separable
    # Zero diagonal entries leave some band equation without a coefficient
    # (coeff <= ftol), so its auxiliary contraction is free.
    for rho in _zero_diagonal_products(rng, 40):
        st = state_from_matrix(rho)
        assert is_separable_params(st).separable, np.round(rho, 3)
        assert is_separable_ppt(st).separable
    for rho in _x_states(rng, 60):
        st = state_from_matrix(rho)
        assert is_separable_params(st).separable == is_separable_ppt(st).separable


def _zero_diagonal_products(rng, n):
    """Mixtures of one to three products; each qubit factor is |0><0|, |1><1|
    or a random pure state, and the first term is |b><b| (x) |c><c| for
    basis states b, c, so that some diagonal entries vanish."""
    basis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    out = []
    for _ in range(n):
        rho = np.kron(basis[rng.integers(2)], basis[rng.integers(2)])
        for _ in range(rng.integers(0, 3)):
            fa, fb = (basis[rng.integers(2)] if rng.random() < 0.5
                      else _random_pure(rng, 2) for _ in range(2))
            rho = rho + rng.uniform(0.2, 1.0) * np.kron(fa, fb)
        out.append(rho / rho.trace().real)
    return out


def _x_states(rng, n):
    """Two-qubit X-states (nonzero entries on the diagonal and anti-diagonal
    only), some with zero diagonal entries, both separable and entangled."""
    out = []
    for _ in range(n):
        r = rng.uniform(0.0, 1.0, size=4) * (rng.random(4) > 0.2)
        r[rng.integers(4)] += 0.5
        r /= r.sum()
        rho = np.diag(r).astype(complex)
        for k, j in ((0, 3), (1, 2)):
            z = (math.sqrt(r[k] * r[j]) * rng.uniform(0.0, 1.0)
                 * np.exp(2j * np.pi * rng.random()))
            rho[k, j], rho[j, k] = z, np.conj(z)
        out.append(rho)
    return out


@pytest.mark.parametrize("rho", [np.eye(4) / 4, bell_state().rho],
                         ids=["separable", "entangled"])
def test_params_separability_disagreement_raises(rho, monkeypatch):
    """A PPT verdict opposite to the parameter search raises instead of
    returning either verdict."""
    real_ppt = states.is_separable_ppt

    def flipped(state, dims=(2, 2)):
        v = real_ppt(state, dims)
        return SeparabilityVerdict(not v.separable, v.method, v.witness)

    monkeypatch.setattr(states, "is_separable_ppt", flipped)
    with pytest.raises(ConsistencyError, match="disagrees with PPT"):
        is_separable_params(state_from_matrix(rho))


def test_params_separability_werner_near_flip():
    for p in (1 / 3 - 1e-3, 1 / 3 + 1e-3):
        v = is_separable_params(werner_state(p))
        assert v.separable == (p < 1 / 3)


def test_params_separability_requires_two_qubits():
    rng = np.random.default_rng(27)
    with pytest.raises(ValueError):
        is_separable_params(state_from_matrix(_random_mixed(rng, 6)))
