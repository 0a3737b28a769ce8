import math
import tracemalloc

import numpy as np
import pytest

from schurq.channels import ChoiMatrix, capacity_D
from schurq.linalg import NotPSDError, maxnorm, reference_determinant, reference_eigenvalues
from schurq.params import (
    SchurParams,
    cholesky_factor,
    det_from_params,
    forward,
    inverse,
    is_psd_via_params,
)
from schurq.states import entropy_E, state_from_matrix


def _defect(g):
    return np.sqrt(1.0 - abs(g) ** 2)


def _random_params(rng, d, radius=0.95):
    gamma = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for j in range(k + 1, d):
            while True:
                z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                if abs(z) < radius:
                    gamma[k, j] = z
                    break
    diag = np.abs(rng.normal(size=d)) + 0.1
    return SchurParams(d, diag, gamma)


def _large_psd(rng, d, rank):
    """X*X with X of shape (rank, d), trace normalized to d."""
    x = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    s = x.conj().T @ x
    return 0.5 * (s + s.conj().T) * (d / np.trace(s).real)


def _corner_not_psd(s):
    """Move the corner entry 50% of a radius outside the disc of PSD
    completions.  Every proper contiguous window is untouched, so extraction
    runs to the last band before it can reject."""
    d = s.shape[0]
    m, u, v = s[1:-1, 1:-1], s[0, 1:-1], s[1:-1, -1]
    centre = u @ np.linalg.solve(m, v)
    left = s[0, 0].real - (u @ np.linalg.solve(m, u.conj())).real
    right = s[-1, -1].real - (v.conj() @ np.linalg.solve(m, v)).real
    out = s.copy()
    out[0, d - 1] = centre + 1.5 * np.sqrt(left * right)
    out[d - 1, 0] = np.conj(out[0, d - 1])
    return out


def _large_inputs():
    """Full-rank and rank-d/4 PSD matrices at d 32 and 48."""
    rng = np.random.default_rng(60)
    return [_large_psd(rng, d, r) for d in (32, 48) for r in (2 * d, d // 4)]


def _hilbert(d):
    i = np.arange(d)
    return 1.0 / (i[:, None] + i[None, :] + 1)


def test_forward_identity_params():
    p = SchurParams(4, np.ones(4), np.zeros((4, 4), dtype=complex))
    np.testing.assert_allclose(forward(p), np.eye(4), atol=1e-15)


def test_forward_d2():
    gamma = np.zeros((2, 2), dtype=complex)
    gamma[0, 1] = 0.6
    p = SchurParams(2, np.ones(2), gamma)
    np.testing.assert_allclose(forward(p), [[1, 0.6], [0.6, 1]], atol=1e-15)


def test_forward_diagonal_is_squared_factors():
    rng = np.random.default_rng(0)
    p = _random_params(rng, 6)
    s = forward(p)
    np.testing.assert_allclose(np.diag(s).real, p.diag ** 2, rtol=1e-13)


def test_cosine_law():
    rng = np.random.default_rng(1)
    for _ in range(100):
        th, th1, ph = rng.uniform(0, np.pi, 3)
        gamma = np.zeros((3, 3), dtype=complex)
        gamma[0, 1], gamma[1, 2], gamma[0, 2] = np.cos(th), np.cos(th1), np.cos(ph)
        s = forward(SchurParams(3, np.ones(3), gamma))
        want = np.cos(th) * np.cos(th1) + np.sin(th) * np.sin(th1) * np.cos(ph)
        assert abs(s[0, 2] - want) <= 1e-12


def test_banded_entry_formulas_d4():
    """forward() must reproduce the explicit near-diagonal expansions."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = _random_params(rng, 4)
        L, g = p.diag, p.gamma
        s = forward(p)
        g12, g13, g14 = g[0, 1], g[0, 2], g[0, 3]
        g23, g24, g34 = g[1, 2], g[1, 3], g[2, 3]
        for k in range(3):
            assert abs(s[k, k + 1] - L[k] * g[k, k + 1] * L[k + 1]) <= 1e-12
        s13 = L[0] * (g12 * g23 + _defect(g12) * g13 * _defect(g23)) * L[2]
        s24 = L[1] * (g23 * g34 + _defect(g23) * g24 * _defect(g34)) * L[3]
        assert abs(s[0, 2] - s13) <= 1e-12
        assert abs(s[1, 3] - s24) <= 1e-12
        s14 = L[0] * (
            g12 * g23 * g34
            + _defect(g12) * g13 * _defect(g23) * g34
            + g12 * _defect(g23) * g24 * _defect(g34)
            - _defect(g12) * g13 * np.conj(g23) * g24 * _defect(g34)
            + _defect(g12) * _defect(g13) * g14 * _defect(g24) * _defect(g34)
        ) * L[3]
        assert abs(s[0, 3] - s14) <= 1e-12


def test_cholesky_factor_shape_and_consistency():
    rng = np.random.default_rng(3)
    p = _random_params(rng, 5)
    g = cholesky_factor(p)
    assert maxnorm(np.tril(g, -1)) == 0
    assert g[0, 0] == 1.0
    s = (p.diag[:, None] * (g.conj().T @ g) * p.diag[None, :])
    np.testing.assert_allclose(s, forward(p), atol=1e-12)
    for s in _large_inputs():
        p = inverse(s)
        g = cholesky_factor(p)
        assert maxnorm(np.tril(g, -1)) == 0
        u = g * p.diag[None, :]
        assert maxnorm(u.conj().T @ u - s) <= 1e-9 * (1 + maxnorm(s))


def test_cholesky_factor_d2():
    gamma = np.zeros((2, 2), dtype=complex)
    gamma[0, 1] = 0.3 + 0.4j
    g = cholesky_factor(SchurParams(2, np.ones(2), gamma))
    np.testing.assert_allclose(g, [[1, 0.3 + 0.4j], [0, np.sqrt(1 - 0.25)]],
                               atol=1e-15)


def test_cholesky_factor_four_corner_entries():
    """The 4x4 unit factor's last column matches its hand expansion."""
    rng = np.random.default_rng(4)
    p = _random_params(rng, 4)
    g12, g13, g14 = p.gamma[0, 1], p.gamma[0, 2], p.gamma[0, 3]
    g23, g24, g34 = p.gamma[1, 2], p.gamma[1, 3], p.gamma[2, 3]
    D = _defect
    G = cholesky_factor(p)
    z = g12 * g23 + D(g12) * g13 * D(g23)
    w = (z * g34 + (g12 * D(g23) - D(g12) * g13 * np.conj(g23)) * g24 * D(g34)
         + D(g12) * D(g13) * g14 * D(g24) * D(g34))
    x = ((D(g12) * g23 - np.conj(g12) * g13 * D(g23)) * g34
         + (D(g12) * D(g23) + np.conj(g12) * g13 * np.conj(g23)) * g24 * D(g34)
         - np.conj(g12) * D(g13) * g14 * D(g24) * D(g34))
    y = (D(g13) * D(g23) * g34 - D(g13) * np.conj(g23) * g24 * D(g34)
         - np.conj(g13) * g14 * D(g24) * D(g34))
    np.testing.assert_allclose([G[0, 2], G[0, 3], G[1, 3], G[2, 3]],
                               [z, w, x, y], atol=1e-13)


def test_inverse_hand_case():
    s = np.array([[1, 0.6, 0.3], [0.6, 1, 0.5], [0.3, 0.5, 1]])
    p = inverse(s)
    assert abs(p.gamma[0, 1] - 0.6) <= 1e-14
    assert abs(p.gamma[1, 2] - 0.5) <= 1e-14
    # 0.3 = 0.6*0.5 + 0.8*sqrt(0.75)*g13 forces g13 = 0, but defined.
    assert abs(p.gamma[0, 2]) <= 1e-14
    assert p.defined[0, 2]


def test_inverse_identity():
    p = inverse(np.eye(4))
    assert np.all(p.gamma == 0)
    assert np.all(p.defined[np.triu_indices(4, 1)])


def test_inverse_boundary_pure_pattern():
    s = np.array([[1.0, 0, 1], [0, 0, 0], [1, 0, 1]])
    p = inverse(s)
    assert abs(abs(p.gamma[0, 2]) - 1.0) <= 1e-12
    assert p.defined[0, 2]
    assert not p.defined[0, 1] and not p.defined[1, 2]


def test_inverse_rejects():
    with pytest.raises(NotPSDError):
        inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPSDError):
        inverse(np.diag([1.0, -1.0]))
    # entry over a zero diagonal
    with pytest.raises(NotPSDError):
        inverse(np.array([[0.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    # corner entry outside its disc: rejected in the last band, at the corner
    rng = np.random.default_rng(61)
    for d in (32, 48):
        with pytest.raises(NotPSDError) as info:
            inverse(_corner_not_psd(_large_psd(rng, d, 2 * d)))
        assert info.value.entry == (0, d - 1) and info.value.band == d - 1


def test_round_trip_params_to_matrix():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        p = _random_params(rng, d, radius=0.98)
        q = inverse(forward(p))
        np.testing.assert_allclose(q.diag, p.diag, atol=1e-9)
        mask = p.defined
        np.testing.assert_allclose(q.gamma[mask], p.gamma[mask], atol=1e-9)
        assert np.array_equal(q.defined, p.defined)


def test_round_trip_matrix_to_params():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = x.conj().T @ x
        err = maxnorm(forward(inverse(s)) - s)
        assert err <= 1e-9 * (1 + maxnorm(s))
    for s in _large_inputs():
        assert maxnorm(forward(inverse(s)) - s) <= 1e-9 * (1 + maxnorm(s))


def test_gamma_scale_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    s = x.conj().T @ x
    p1, p2 = inverse(s), inverse(17.5 * s)
    np.testing.assert_allclose(p2.gamma, p1.gamma, atol=1e-12)
    np.testing.assert_allclose(p2.diag, np.sqrt(17.5) * p1.diag, rtol=1e-12)


def test_boundary_masking_kills_dependent_entries():
    # |gamma[0,1]| = 1 forces the (0, 2) parameter to be masked.
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[0, 1] = 1.0
    gamma[1, 2] = 0.25
    p = SchurParams(3, np.ones(3), gamma,
                    np.array([[False, True, False],
                              [False, False, True],
                              [False, False, False]]))
    q = inverse(forward(p))
    assert not q.defined[0, 2] and q.gamma[0, 2] == 0


def test_det_from_params():
    gamma = np.zeros((2, 2), dtype=complex)
    gamma[0, 1] = 0.6
    assert abs(det_from_params(SchurParams(2, np.ones(2), gamma)) - 0.64) <= 1e-15
    p = SchurParams(3, np.ones(3), np.zeros((3, 3), dtype=complex))
    assert det_from_params(p) == 1.0
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[0, 1] = 1.0
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 1] = mask[1, 2] = True
    assert det_from_params(SchurParams(3, np.ones(3), gamma, mask)) == 0.0


def test_det_matches_reference():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = x.conj().T @ x
        np.testing.assert_allclose(det_from_params(inverse(s)),
                                   reference_determinant(s), rtol=1e-9)
    # Rank-deficient input: the determinant is never negative (not even -0.0)
    # and it is exactly 0.0 whenever the log-det readers report a singular
    # matrix from the same parameters.
    for _ in range(200):
        d = int(rng.integers(2, 10))
        r = int(rng.integers(1, d))
        x = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
        s = x.conj().T @ x
        det = det_from_params(inverse(s))
        assert math.copysign(1.0, det) == 1.0
        if capacity_D(ChoiMatrix(1, d, s)) == math.inf:
            assert det == 0.0
        st = state_from_matrix(s / np.trace(s).real)
        det = det_from_params(st.params)
        assert math.copysign(1.0, det) == 1.0
        if entropy_E(st) == -math.inf:
            assert det == 0.0
    # d 32 and 48, relative to the diagonal product
    for s in _large_inputs():
        diag_prod = float(np.prod(s.diagonal().real))
        lu = reference_determinant(s) / diag_prod
        assert abs(det_from_params(inverse(s)) / diag_prod - lu) <= 1e-9 + 1e-6 * abs(lu)


def test_is_psd_via_params():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 4))
    assert is_psd_via_params(x.T @ x)
    assert not is_psd_via_params(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert is_psd_via_params(np.diag([1.0, 0.0]))
    for d in range(2, 12):
        h = _hilbert(d)
        assert is_psd_via_params(h)
        assert maxnorm(forward(inverse(h)) - h) <= 1e-9 * (1 + maxnorm(h))


def test_memory_stays_quadratic():
    """No O(d^4) table: inverse and forward at d=64 peak under 2 MB."""
    s = _large_psd(np.random.default_rng(62), 64, 128)
    p = inverse(s)
    for call, arg in ((inverse, s), (forward, p)):
        tracemalloc.start()
        try:
            call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def test_is_psd_agrees_with_eigen_oracle():
    rng = np.random.default_rng(10)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = 0.5 * (x + x.conj().T)
        oracle = reference_eigenvalues(s)[0] >= -1e-9 * maxnorm(s)
        assert is_psd_via_params(s) == oracle


def _bad_params(diag=(1.0, 1.0, 1.0), **entries) -> SchurParams:
    """3x3 parameters, valid unless changed: ``g01=0.5`` sets gamma[0, 1],
    ``m01=True`` sets defined[0, 1], ``n01=False`` clears it."""
    gamma = np.zeros((3, 3), dtype=complex)
    defined = np.triu(np.ones((3, 3), dtype=bool), 1)
    for key, value in entries.items():
        target = gamma if key[0] == "g" else defined
        target[int(key[1]), int(key[2])] = value
    return SchurParams(3, np.array(diag), gamma, defined)


_VALIDATE_MESSAGES = {
    "shape": "inconsistent shapes in SchurParams",
    "finite": "non-finite entries in SchurParams",
    "diag": "diagonal factors must be nonnegative",
    "lower gamma": "gamma must be strictly upper triangular",
    "lower defined": "defined mask must be strictly upper triangular",
    "disc": "parameters must lie in the closed unit disc",
    "masked": "masked parameters must carry the convention value 0",
}


def test_validate_rejects_bad_params():
    """Each of the seven checks rejects with its own message."""
    cases = {
        "shape": SchurParams(3, np.ones(2), np.zeros((3, 3), dtype=complex)),
        "finite": _bad_params(g01=np.nan),
        "diag": _bad_params(diag=(1.0, -1.0, 1.0)),
        "lower gamma": _bad_params(g10=0.5),
        "lower defined": _bad_params(m21=True),
        "disc": _bad_params(g02=1.5),
        "masked": _bad_params(g12=0.5, n12=False),
    }
    for name, params in cases.items():
        with pytest.raises(ValueError, match=f"^{_VALIDATE_MESSAGES[name]}$"):
            params.validate()
    _bad_params(g01=1.0 + 0.5e-10, g12=-0.3j).validate()  # inside the allowance


def test_validate_check_order():
    """When two checks fail, the one listed first in ``validate`` reports."""
    cases = [
        ("shape", SchurParams(3, np.array([np.nan, 1.0]),
                              np.zeros((3, 3), dtype=complex))),
        ("finite", _bad_params(diag=(np.inf, -1.0, 1.0))),
        ("diag", _bad_params(diag=(1.0, 1.0, -2.0), g20=0.5)),
        ("lower gamma", _bad_params(g21=0.5, m10=True)),
        ("lower defined", _bad_params(m20=True, g01=2.0)),
        ("disc", _bad_params(g01=2.0, n01=False)),
    ]
    for name, params in cases:
        with pytest.raises(ValueError, match=f"^{_VALIDATE_MESSAGES[name]}$"):
            params.validate()
