import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from schurq.channels import (
    ChoiMatrix,
    QubitChannelNF,
    capacity_D,
    choi_from_map,
    identity_channel,
    kraus_from_choi,
    qubit_nf_params,
)
from schurq.displacement import displacement_inverse
from schurq.linalg import (
    NotPSDError,
    maxnorm,
    reference_cholesky,
    reference_determinant,
    reference_eigenvalues,
)
from schurq.params import (
    SchurParams,
    _extract,
    _read_factor,
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
    # On full-rank input the scaled factor is the Cholesky factor, entry by
    # entry (gap about 1e-15 * |S|), not just some U with U*U = S.
    full_rank = _large_inputs()[::2]  # rank 2d at d 32 and 48
    for d in (3, 6, 12):
        for _ in range(10):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            full_rank.append(x.conj().T @ x)
    for s in full_rank:
        p = inverse(s)
        u = cholesky_factor(p) * p.diag[None, :]
        assert maxnorm(u - reference_cholesky(s)) <= 1e-13 * (1 + maxnorm(s))


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
    with pytest.raises(ValueError, match="empty matrix"):
        inverse(np.zeros((0, 0)))
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


@pytest.mark.parametrize("d", [8, 16, 32])
def test_rank_deficient_bands_are_dead(d, monkeypatch):
    """Generic rank r: every window wider than r + 1 has a zero-variance
    residual, so every parameter past band r is masked.  Such a dead band
    leaves extraction's lattice (f, g, sl, sr) as it was, and synthesis
    updates its rows for bands 1..r only."""
    import schurq.params as params

    moved, updated = [], []
    absorb, update = params._Lattice.absorb, params._update

    def watched_absorb(lat, b, *args):
        before = [a.copy() for a in (lat.f, lat.g, lat.sl, lat.sr)]
        absorb(lat, b, *args)
        after = (lat.f, lat.g, lat.sl, lat.sr)
        if not all(np.array_equal(x, y) for x, y in zip(before, after)):
            moved.append(b)

    def watched_update(f, g, cf, cg):
        updated.append(d - f.shape[0])  # band b updates rows f[:d-b]
        update(f, g, cf, cg)

    monkeypatch.setattr(params._Lattice, "absorb", watched_absorb)
    monkeypatch.setattr(params, "_update", watched_update)
    rng = np.random.default_rng(70 + d)
    band = np.arange(d)[None, :] - np.arange(d)[:, None]  # j - k
    for r in (1, d // 4, d // 2):
        s = _large_psd(rng, d, r)
        moved.clear()
        p = inverse(s)
        assert np.array_equal(p.defined, (band >= 1) & (band <= r)), r
        assert moved == list(range(1, r + 1)), r
        updated.clear()
        rebuilt = forward(p)
        assert updated == list(range(1, r + 1)), r
        assert maxnorm(rebuilt - s) <= 1e-12 * maxnorm(s), r


@pytest.mark.parametrize("d, r", [(16, 1), (16, 4), (32, 8), (48, 12)])
def test_tail_rejection_keeps_its_place(d, r):
    """Every band past r of a rank-r matrix is dead.  One Hermitian entry
    pair past band r moved by 1e-3 is rejected at that entry and band, as
    an inconsistent degenerate entry whose residual is the move, on the
    input's scale: under a positive diagonal congruence D, D_k D_j 1e-3."""
    rng = np.random.default_rng(1101)
    s = _large_psd(rng, d, r)
    scales = (np.ones(d), 10.0 ** rng.uniform(-2.0, 2.0, d))
    for (k, j), dvec in itertools.product(((0, d - 1), (2, r + 5), (d // 2, d - 2)), scales):
        t = s.copy()
        t[k, j] += 1e-3
        t[j, k] += 1e-3
        with pytest.raises(NotPSDError) as info:
            inverse(dvec[:, None] * t * dvec)
        e = info.value
        assert (e.reason, e.entry, e.band) == ("inconsistent degenerate entry", (k, j), j - k)
        want = dvec[k] * dvec[j] * 1e-3
        assert abs(e.value - want) <= 1e-6 * want


def test_dead_band_before_live_bands():
    """Rank 3 with rows and columns 5..8 zero: band 4 is dead, but windows
    [k, j] with k <= 4 < 9 <= j skip the zero block, so bands 5..7 are
    partly live; bands 8.. are dead again."""
    d = 16
    s = _large_psd(np.random.default_rng(1101), d, 3)
    s[5:9, :] = 0.0
    s[:, 5:9] = 0.0
    p = inverse(s)
    per_band = [int(np.count_nonzero(p.defined.diagonal(b))) for b in range(1, d)]
    assert per_band == [10, 8, 6, 0, 1, 2, 3] + [0] * 8
    assert maxnorm(forward(p) - s) <= 1e-12 * maxnorm(s)


def _extraction_bytes(s):
    """The bytes of ``_extract``'s parameters and of ``_read_factor`` on its
    lattice, or the rejection's reason, entry, band and value."""
    try:
        _, p, lat = _extract(s)
    except NotPSDError as e:
        return e.reason, e.entry, e.band, np.float64(e.value).tobytes()
    return tuple(a.tobytes() for a in (p.diag, p.gamma, p.defined, _read_factor(p, lat)))


def test_dead_tail_exit_matches_the_band_loop(monkeypatch):
    """The one-step dead tail gives, byte for byte, what the band loop gives
    with the exit switched off: on rank-deficient input, on input moved past
    the rank (rejected in the tail) and on input with a zero row."""
    import schurq.params as params

    rng = np.random.default_rng(1102)
    inputs = []
    for d in (4, 9, 16, 32):
        for r in sorted({1, d // 4, d // 2, d}):
            s = _large_psd(rng, d, r)
            for k, j in ((0, d - 1), (d // 2, d - 1)):
                moved = s.copy()
                moved[k, j] += 1e-3
                moved[j, k] += 1e-3
                inputs.append(moved)
            for rows in (d // 2, d - 1, slice(5, 9)):  # 5..8: live bands after a dead one
                zero = s.copy()
                zero[rows, :] = zero[:, rows] = 0.0
                inputs.append(zero)
            inputs.append(s)
    # A rank d-3 tail is two rows long; how its one-entry products broadcast
    # decides their rounding, so take a few draws of it.
    inputs += [_large_psd(rng, d, d - 3) for d in (5, 6, 9) for _ in range(6)]
    exits = []
    dead_tail = params._dead_tail

    def watched_dead_tail(*args):
        exits.append(dead_tail(*args))
        return exits[-1]

    monkeypatch.setattr(params, "_dead_tail", watched_dead_tail)
    with_exit = [_extraction_bytes(s) for s in inputs]
    assert any(exits) and not all(exits)
    assert any(isinstance(x[0], str) for x in with_exit)
    monkeypatch.setattr(params, "_dead_tail", lambda *args: False)
    assert [_extraction_bytes(s) for s in inputs] == with_exit


def test_lattice_factor_matches_synthesized_factor_near_rank_deficiency():
    """The Kraus route reads G off the extraction lattice; it must equal the
    synthesized cholesky_factor of the same parameters.  Near rank r most
    windows past band r are masked, so this checks that the masked
    covariances left the lattice's g rows (the strict upper triangle that
    _read_factor reads) as they leave S.  A zero row and column (row 0 or a
    middle one) gives a zero L_j, whose column's defect product is 1.0."""
    rng = np.random.default_rng(90)
    worst = 0.0
    for d in (4, 6, 9):
        for r in (1, d // 2):
            for _ in range(10):
                x = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
                y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                s = x.conj().T @ x + 1e-13 * (y.conj().T @ y)
                for zero in (None, 0, d // 2):
                    t = s.copy()
                    if zero is not None:
                        t[zero, :] = t[:, zero] = 0.0
                    _, p, lat = _extract(t)  # raises NotPSDError if rejected
                    worst = max(worst, maxnorm(_read_factor(p, lat) - cholesky_factor(p)))
    assert worst <= 1e-6


def _negative_zeros(s):
    """``s`` with every zero real or imaginary part made -0.0."""
    s = np.array(s, dtype=complex)
    parts = s.view(np.float64)
    parts[parts == 0.0] = -0.0
    return s


def test_negative_zero_input_gives_the_same_outputs():
    """The sign of a zero entry carries no information: input with -0.0 gives
    the parameters, matrix, Kraus generators and capacity of the same input
    with +0.0 (compared with ==)."""
    rng = np.random.default_rng(81)
    mats = [np.array([[1, 0, 0, 0], [0, 1, 0, -0.3], [0, 0, 1, 0], [0, -0.3, 0, 1]]),
            np.eye(4)]
    for d in (4, 6, 9):
        for r in (1, d // 2, d):
            x = rng.normal(size=(r, d))
            mats.append(x.T @ x)  # real: every imaginary part is zero
    for s in mats:
        p, q = inverse(s), inverse(_negative_zeros(s))
        assert np.array_equal(p.gamma, q.gamma) and np.array_equal(p.diag, q.diag)
        assert np.array_equal(p.defined, q.defined)
        assert np.array_equal(forward(p), forward(q))
        d_in = 2 if s.shape[0] < 9 else 3
        c = ChoiMatrix(d_in, s.shape[0] // d_in, s)
        c_neg = ChoiMatrix(d_in, s.shape[0] // d_in, _negative_zeros(s))
        ka, kb = kraus_from_choi(c).generators, kraus_from_choi(c_neg).generators
        assert len(ka) == len(kb)
        assert all(np.array_equal(a, b) for a, b in zip(ka, kb))
        assert capacity_D(c) == capacity_D(c_neg)


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


def test_det_keeps_the_correlation_of_a_row_below_the_zero_threshold():
    """Row 1's diagonal is below CIRCLE_SNAP times row 0's, but its entry
    3e-8 is far past the slack: it is no zero row, and the determinant
    1e-15 - 9e-16 counts the correlation."""
    s = np.array([[1.0, 3e-8], [3e-8, 1e-15]], dtype=complex)
    for route in (inverse, displacement_inverse):
        p = route(s)
        assert p.defined[0, 1]
        np.testing.assert_allclose(det_from_params(p), reference_determinant(s), rtol=1e-9)


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


def _fresh(p):
    """A copy of ``p`` that has not been synthesized."""
    return SchurParams(p.dim, p.diag, p.gamma, p.defined)


def test_memory_stays_quadratic():
    """No O(d^4) table: inverse, forward and cholesky_factor at d=64 peak
    under 2 MB, at full rank and on the rank-deficient path (dead bands),
    each synthesis on parameters not synthesized before.  The synthesis a
    SchurParams keeps holds under 160 KiB: the upper triangle and the
    coefficient rows, 64 KiB each, and the defect products."""
    rng = np.random.default_rng(62)
    for rank in (128, 16, 1):
        s = _large_psd(rng, 64, rank)
        p = inverse(s)
        for call, arg in ((inverse, s), (forward, _fresh(p)), (cholesky_factor, _fresh(p))):
            tracemalloc.start()
            try:
                call(arg)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20, (rank, call.__name__)
            if call is forward:
                assert current < 160 * 2 ** 10, rank


def test_synthesis_is_kept_and_fields_are_read_only(synthesis_runs):
    """forward and cholesky_factor on one SchurParams, in either order and
    twice each, run the band loop once and give a fresh copy's bytes.
    Writing into an output leaves the kept synthesis as it was.  No field
    can change: in-place writes and reassignments raise, and writing into
    the caller's source arrays after construction reaches neither the
    parameters nor the outputs."""
    rng = np.random.default_rng(1301)
    p = inverse(_large_psd(rng, 9, 4))  # masked entries past band 4

    def fresh_bytes(p):
        q = _fresh(p)
        return {forward: forward(q).tobytes(), cholesky_factor: cholesky_factor(q).tobytes()}

    want = fresh_bytes(p)
    for order in ((forward, cholesky_factor), (cholesky_factor, forward)):
        q = _fresh(p)
        before = len(synthesis_runs)
        assert [call(q).tobytes() for call in order + order] == [want[c] for c in order + order]
        assert len(synthesis_runs) == before + 1
        order[0](q)[...] = 7.0
        assert [call(q).tobytes() for call in order] == [want[c] for c in order]
        assert len(synthesis_runs) == before + 1

    masked = tuple(np.argwhere(np.triu(~p.defined, 1))[0])
    live = tuple(np.argwhere(p.defined)[-1])
    for target, index, value in ((p.gamma, live, 0.25), (p.diag, 0, 2.0),
                                 (p.defined, masked, True), (p.gamma.real, masked, -0.0)):
        with pytest.raises(ValueError, match="read-only"):
            target[index] = value
    for name in ("dim", "diag", "gamma", "defined", "_synthesis"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, getattr(p, name))

    diag, gamma, defined = p.diag.copy(), p.gamma.copy(), p.defined.copy()
    q = SchurParams(p.dim, diag, gamma, defined)
    diag *= 2.0
    gamma[live] *= 0.5
    defined[masked] = True
    assert [a.tobytes() for a in (q.diag, q.gamma, q.defined)] == \
        [a.tobytes() for a in (p.diag, p.gamma, p.defined)]
    assert [forward(q).tobytes(), cholesky_factor(q).tobytes()] == \
        [want[forward], want[cholesky_factor]]


def _reference_synthesis(p: SchurParams):
    """``_synthesize`` as one lattice step per band, each band's divisors and
    coefficients taken from running defect products ``dl``, ``dr`` of the
    window's row and column.  Returns ``(s, g, dr)`` and the number of
    nonzero parameters behind a zero divisor."""
    import schurq.params as params

    d, lvec = p.dim, p.diag
    s = np.diag((lvec * lvec).astype(np.complex128))
    f, g = np.eye(d, dtype=np.complex128), np.eye(d, dtype=np.complex128)
    dl, dr = np.ones(d), np.ones(d)
    dgs = params.defect(p.gamma)
    hidden = 0
    for b in range(1, d):
        n = d - b
        divisor = lvec[:n] * lvec[b:] * (dl[:n] * dr[b:])
        gam, live = p.gamma.diagonal(b), divisor > 0.0
        hidden += np.count_nonzero(gam[~live])
        # f[k] . S[:, k+b] while S[k, k+b] is still 0: the projected part.
        known = np.einsum("ki,ik->k", f[:n], s[:, b:])
        params._band_diagonal(s, b)[:] = gam * divisor - known
        if np.count_nonzero(gam):
            gam = np.where(live, gam, 0.0)  # rows of a zero-variance window stay
            sl = np.where(live, lvec[:n] * dl[:n], 1.0)
            sr = np.where(live, lvec[b:] * dr[b:], 1.0)
            params._update(f[:n], g[b:], gam * (sl / sr), np.conj(gam) * (sr / sl))
            dl[:n] *= dgs.diagonal(b)
            dr[b:] *= dgs.diagonal(b)
    return (s, g, dr), hidden


def _edge_params(rng, d):
    """Valid parameters with exact circle entries (+-1, +-i), e^{i theta}
    entries, zeros, masked entries and zero diagonal factors."""
    rows, cols = np.triu_indices(d, 1)
    m = rows.shape[0]
    z = rng.uniform(0.0, 1.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    kind = rng.integers(6, size=m)
    z = np.where(kind == 0, rng.choice(np.array([1, -1, 1j, -1j]), m), z)
    z = np.where(kind == 1, np.exp(2j * np.pi * rng.uniform(size=m)), z)
    z = np.where(kind == 2, 0.0, z)
    defined = np.zeros((d, d), dtype=bool)
    defined[rows, cols] = rng.uniform(size=m) >= 0.2
    gamma = np.zeros((d, d), dtype=complex)
    gamma[rows, cols] = np.where(defined[rows, cols], z, 0.0)
    diag = rng.uniform(0.1, 2.0, d)
    diag[rng.uniform(size=d) < 0.15] = 0.0
    return SchurParams(d, diag, gamma, defined)


def test_synthesis_matches_band_by_band_reference():
    """Synthesis reads every band's divisors and coefficients off the
    parameters at once, and gives the band loop's matrix, coefficient rows,
    defect products, forward and cholesky_factor byte for byte: on extracted
    parameters (ranks 1, d/4, d/2 and d; a zero middle row) and on random
    valid parameters whose circle entries and zero diagonal factors leave
    nonzero parameters behind a zero divisor."""
    import schurq.params as params

    rng = np.random.default_rng(1501)
    cases = []
    for d in (1, 2, 3, 5, 8, 16, 32):
        for r in sorted({1, max(1, d // 4), max(1, d // 2), d}):
            s = _large_psd(rng, d, r)
            cases.append(inverse(s))
            if d > 2:
                s[d // 2, :] = s[:, d // 2] = 0.0
                cases.append(inverse(s))
    cases += [_edge_params(rng, int(rng.integers(1, 25))) for _ in range(300)]
    hidden = 0
    for p in cases:
        (s, g, dr), behind = _reference_synthesis(p)
        hidden += behind
        assert [a.tobytes() for a in params._synthesize(p)] == \
            [a.tobytes() for a in (s, g, dr)], p.dim
        assert forward(p).tobytes() == (s + np.triu(s, 1).conj().T).tobytes()
        assert cholesky_factor(p).tobytes() == params._factor(g @ s, p.diag, dr).tobytes()
    assert hidden > 0


@pytest.mark.parametrize("build", [
    lambda: inverse(np.eye(3)),
    lambda: state_from_matrix(np.eye(3) / 3.0),
    lambda: identity_channel(2),
    lambda: choi_from_map(identity_channel(2)),
    lambda: kraus_from_choi(choi_from_map(identity_channel(2))),
    lambda: QubitChannelNF(np.zeros(3), np.full(3, 0.5)),
    lambda: qubit_nf_params(QubitChannelNF(np.zeros(3), np.full(3, 0.5)))[1],
], ids=["SchurParams", "DensityState", "LinearMap", "ChoiMatrix", "KrausSet",
        "QubitChannelNF", "QubitNFReport"])
def test_array_holders_compare_by_identity(build):
    """A value that holds arrays compares and hashes by identity: ``==``
    and ``hash`` do not raise, and two equal builds are not equal."""
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


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
    "dim": "dimension must be >= 1",
    "shape": "inconsistent shapes in SchurParams",
    "finite": "non-finite entries in SchurParams",
    "diag": "diagonal factors must be nonnegative",
    "lower gamma": "gamma must be strictly upper triangular",
    "lower defined": "defined mask must be strictly upper triangular",
    "disc": "parameters must lie in the closed unit disc",
    "masked": "masked parameters must carry the convention value 0",
}


def test_validate_rejects_bad_params():
    """Each of the eight checks rejects construction with its own message,
    also with ``defined`` left at its default."""
    cases = {
        "dim": lambda: SchurParams(-1, np.ones(1), np.zeros((1, 1), dtype=complex)),
        "shape": lambda: SchurParams(3, np.ones(2), np.zeros((3, 3), dtype=complex)),
        "finite": lambda: _bad_params(g01=np.nan),
        "diag": lambda: _bad_params(diag=(1.0, -1.0, 1.0)),
        "lower gamma": lambda: _bad_params(g10=0.5),
        "lower defined": lambda: _bad_params(m21=True),
        "disc": lambda: _bad_params(g02=1.5),
        "masked": lambda: _bad_params(g12=0.5, n12=False),
    }
    for name, build in cases.items():
        with pytest.raises(ValueError, match=f"^{_VALIDATE_MESSAGES[name]}$"):
            build()
    _bad_params(g01=1.0 + 0.5e-10, g12=-0.3j).validate()  # inside the allowance


def test_validate_check_order():
    """When two checks fail, the one listed first in ``validate`` reports,
    at construction."""
    cases = [
        ("shape", lambda: SchurParams(3, np.array([np.nan, 1.0]),
                                      np.zeros((3, 3), dtype=complex))),
        ("finite", lambda: _bad_params(diag=(np.inf, -1.0, 1.0))),
        ("diag", lambda: _bad_params(diag=(1.0, 1.0, -2.0), g20=0.5)),
        ("lower gamma", lambda: _bad_params(g21=0.5, m10=True)),
        ("lower defined", lambda: _bad_params(m20=True, g01=2.0)),
        ("disc", lambda: _bad_params(g01=2.0, n01=False)),
    ]
    for name, build in cases:
        with pytest.raises(ValueError, match=f"^{_VALIDATE_MESSAGES[name]}$"):
            build()
