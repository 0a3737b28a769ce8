import math
import warnings

import numpy as np
import pytest

from schurq.displacement import displacement_inverse
from schurq.linalg import NotPSDError, maxnorm
from schurq.params import (_ENTRY_EPS, SchurParams, _entry_step, _preamble, _rejection, defect,
                           forward, inverse)


# ---------------------------------------------------------------------------
# Reference: the recursion node by node, one generator array per shifted time.


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


def _reference_inverse(s: np.ndarray) -> SchurParams:
    """``displacement_inverse`` visiting one node (k, j) at a time."""
    s, lvec, s1, unit = _preamble(s)
    d = s.shape[0]
    prop_tol = 1e3 * _ENTRY_EPS

    gens = _initial_generators(s1)
    gammas = [0.0 + 0.0j] * d
    degen = [False] * d
    gamma = np.zeros((d, d), dtype=np.complex128)
    defined = np.triu(np.ones((d, d), dtype=bool), 1)
    dl, dr = unit.tolist(), unit.tolist()

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
            val, gam, dg, masked, failure = _entry_step(np.conj(g[0, 1]) * dl[k], dl[k] * dr[j])
            if failure is not None:
                raise _rejection(failure[1], k, j, failure[2], lvec)
            gh, dgn = np.conj(gam), False
            if masked:
                defined[k, j] = False
            else:
                if np.abs(val) >= 1.0 or dg == 0.0:
                    resid = maxnorm(g[:, 1] - gh * g[:, 0])
                    if resid > prop_tol:
                        raise NotPSDError("inconsistent boundary generator",
                                          entry=(k, j), band=m, value=float(resid))
                    dgn = True
                gamma[k, j] = gam
                dl[k] *= dg
                dr[j] *= dg
            new_gens.append(g)
            new_gammas.append(gh)
            new_degen.append(dgn)
        gens, gammas, degen = new_gens, new_gammas, new_degen

    params = SchurParams(d, lvec, gamma, defined)
    params.validate()
    return params


def _outcome(f, s):
    try:
        return f(s), None
    except NotPSDError as exc:
        return None, exc


# ---------------------------------------------------------------------------


def test_identity():
    p = displacement_inverse(np.eye(5))
    assert np.all(p.gamma == 0)
    assert np.all(p.defined[np.triu_indices(5, 1)])
    np.testing.assert_allclose(p.diag, np.ones(5))


def test_hand_case_3x3():
    s = np.array([[1, 0.6, 0.3], [0.6, 1, 0.5], [0.3, 0.5, 1]])
    p = displacement_inverse(s)
    np.testing.assert_allclose([p.gamma[0, 1], p.gamma[1, 2], p.gamma[0, 2]],
                               [0.6, 0.5, 0.0], atol=1e-13)


def test_agrees_with_direct_inverse():
    rng = np.random.default_rng(20)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = x.conj().T @ x
        p1, p2 = inverse(s), displacement_inverse(s)
        assert np.array_equal(p1.defined, p2.defined)
        assert maxnorm(p1.gamma - p2.gamma) <= 1e-9
        assert maxnorm(p1.diag - p2.diag) <= 1e-9
    x = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
    s = x.conj().T @ x
    p1, p2 = inverse(s), displacement_inverse(s)
    assert np.array_equal(p1.defined, p2.defined)
    assert maxnorm(p1.gamma - p2.gamma) <= 1e-9


def test_boundary_pattern():
    s = np.array([[1.0, 0, 1], [0, 0, 0], [1, 0, 1]])
    p = displacement_inverse(s)
    assert p.defined[0, 2] and abs(p.gamma[0, 2] - 1.0) <= 1e-12
    assert not p.defined[0, 1] and not p.defined[1, 2]


def test_masks_agree_on_degenerate_input():
    gamma = np.zeros((4, 4), dtype=complex)
    gamma[0, 1] = 1.0
    gamma[1, 2] = 0.5
    gamma[2, 3] = np.exp(0.7j)
    mask = np.triu(np.ones((4, 4), dtype=bool), 1)
    mask[0, 2] = mask[0, 3] = False
    s = forward(SchurParams(4, np.array([1.0, 2.0, 1.0, 0.5]), gamma, mask))
    p1, p2 = inverse(s), displacement_inverse(s)
    assert np.array_equal(p1.defined, p2.defined)


def test_rank_one_nodes_on_the_circle():
    """Rank-one v v*: a ratio of modulus just below 1 whose defect rounds to 0
    is a degenerate node, not a division by zero (which used to show as
    RuntimeWarnings and a rejection at -inf)."""
    rng = np.random.default_rng(7)
    accepted = 0
    for d in range(2, 10):
        for _ in range(25):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    displacement_inverse(np.outer(v, v.conj()))
                    accepted += 1
                except NotPSDError as exc:
                    assert exc.value != -math.inf, str(exc)
    assert accepted >= 177


def test_rank_deficient_input_accepted_with_inverse_masks():
    """Every node's mask is decided when the recursion reaches it, by the
    divisor rule of the direct solve, so a masked node forms no noise ratio:
    rank-one and rank-d/4 input is accepted, with the masks of ``inverse``."""
    rng = np.random.default_rng(88)
    cases = []
    for d in range(2, 10):
        for _ in range(25):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            cases.append(np.outer(v, v.conj()))
    for d in (16, 32):
        for _ in range(3):
            x = rng.standard_normal((d // 4, d)) + 1j * rng.standard_normal((d // 4, d))
            cases.append(x.conj().T @ x)
    for s in cases:
        p1, p2 = inverse(s), displacement_inverse(s)
        assert np.array_equal(p1.defined, p2.defined)
        assert maxnorm(forward(p2) - s) <= 1e-9 * maxnorm(s)


def test_rejects_indefinite():
    with pytest.raises(NotPSDError):
        displacement_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPSDError):
        displacement_inverse(np.diag([1.0, -1.0]))
    with pytest.raises(NotPSDError):
        displacement_inverse(np.array([[0.0, 0.5], [0.5, 1.0]]))
    # Rank d/2 with 1e-3 added to both corner entries is indefinite at first
    # order, and it reaches the boundary check of the recursion and the
    # masked-entry check of the entry step.  The first hit of each reason at
    # d = 3 and d = 9 is pinned by entry and band.
    first = {}
    for d, s in _corner_inputs():
        assert np.linalg.eigvalsh(s)[0] < -1e-6
        with pytest.raises(NotPSDError) as info:
            displacement_inverse(s)
        err = info.value
        assert err.reason in ("inconsistent degenerate entry",
                              "inconsistent boundary generator"), err
        first.setdefault((err.reason, d), (err.entry, err.band))
    assert first[("inconsistent boundary generator", 3)] == ((0, 1), 1)
    assert first[("inconsistent degenerate entry", 3)] == ((0, 2), 2)
    assert first[("inconsistent boundary generator", 9)] == ((0, 4), 4)
    assert first[("inconsistent degenerate entry", 9)] == ((0, 8), 8)


def test_masked_rejections_match_inverse_on_corner_inputs():
    """Both routes judge a masked entry by one rule (``_entry_step``): every
    masked rejection of the recursion on the corner inputs is ``inverse``'s,
    by reason, entry and band, and its value is the residual on the input's
    scale, the 1e-3 added to the corner."""
    masked = 0
    for _, s in _corner_inputs():
        err = _outcome(displacement_inverse, s)[1]
        if err.reason == "inconsistent degenerate entry":
            masked += 1
            ref = _outcome(inverse, s)[1]
            assert (err.reason, err.entry, err.band) == (ref.reason, ref.entry, ref.band)
            assert abs(err.value - 1e-3) <= 1e-8 * 1e-3
    assert masked == 175


def _corner_inputs():
    """60 rank-d/2 corner inputs at each d in 3..9 (``default_rng(8001)``)."""
    rng = np.random.default_rng(8001)
    return [(d, _rank_half_corner(rng, d)) for d in range(3, 10) for _ in range(60)]


def _rank_half_corner(rng, d):
    x = rng.normal(size=(d, d // 2)) + 1j * rng.normal(size=(d, d // 2))
    s = x @ x.conj().T
    s[0, d - 1] += 1e-3
    s[d - 1, 0] += 1e-3
    return s


def _fuzz_case(rng, d):
    """One input of a randomly chosen kind: PSD of full, half, quarter or unit
    rank, tiny scale, near rank, a zero row, shifted indefinite, a corner
    perturbation, random Hermitian, or synthesized with one parameter on the
    unit circle."""
    def cx(r):
        return rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))

    kind = int(rng.integers(12))
    r = (d, d // 2, max(d // 4, 1), 1)[kind % 4]
    x = cx(r)
    s = x @ x.conj().T
    if kind == 4:
        s = x.real @ x.real.T
    elif kind == 5:
        s *= 1e-12
    elif kind == 6:
        y = cx(d)
        s = s + 1e-11 * (y @ y.conj().T)
    elif kind == 7:
        i = int(rng.integers(d))
        s[i, :] = 0.0
        s[:, i] = 0.0
    elif kind == 8:
        s = s - (np.linalg.eigvalsh(s)[0] + 1e-3 * (1.0 + rng.random())) * np.eye(d)
    elif kind == 9:
        s[0, d - 1] += 1e-3
        s[d - 1, 0] += 1e-3
    elif kind == 10:
        y = cx(d)
        s = y + y.conj().T
    elif kind == 11:
        g = np.triu(0.6 * rng.uniform(size=(d, d)) * np.exp(6.3j * rng.uniform(size=(d, d))), 1)
        k = int(rng.integers(d - 1))
        g[k, k + 1] /= abs(g[k, k + 1])
        s = forward(SchurParams(d, rng.uniform(0.5, 2.0, d), g))
    return s


def test_level_step_matches_node_by_node_reference():
    """The per-level step decides what the node-by-node recursion decides:
    the same verdict, mask and rejection (reason, entry, band), with
    parameters and rejection values equal up to a few ulps.  What the route
    accepts, its parameters with unit factors synthesize back to the
    unit-diagonal matrix within ``50 d`` times the entry slack at scale 1."""
    rng = np.random.default_rng(1212)
    cases = [np.kron(np.eye(2), [[1.0, 2.0], [2.0, 1.0]]),
             np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 2.0, 1.0]])]
    cases += [_rank_half_corner(rng, 9) for _ in range(4)]
    cases += [_fuzz_case(rng, int(rng.integers(2, 11))) for _ in range(400)]
    kinds = {}
    for s in cases:
        (p1, e1), (p2, e2) = _outcome(_reference_inverse, s), _outcome(displacement_inverse, s)
        assert (e1 is None) == (e2 is None)
        if e1 is not None:
            assert (e1.reason, e1.entry, e1.band) == (e2.reason, e2.entry, e2.band)
            assert abs(e1.value - e2.value) <= 1e-14 * abs(e1.value)
            kinds.setdefault(e1.reason, (e1.entry, e1.band))
            continue
        assert np.array_equal(p1.defined, p2.defined)
        assert np.array_equal(p1.diag, p2.diag)
        assert maxnorm(p1.gamma - p2.gamma) <= 1e-14
        _, _, s1, unit = _preamble(s)
        unit_params = SchurParams(p2.dim, unit, p2.gamma, p2.defined)
        assert maxnorm(forward(unit_params) - s1) <= 50.0 * p2.dim * _ENTRY_EPS
    # Two nodes of level 1 fail in each of the first two cases; the first node
    # wins, whichever check fails there.
    first = [_outcome(displacement_inverse, s)[1] for s in cases[:2]]
    assert [(e.reason, e.entry, e.band) for e in first] == [
        ("parameter outside the unit disc", (0, 1), 1),
        ("inconsistent boundary generator", (0, 1), 1)]
    assert set(kinds) >= {"inconsistent degenerate entry", "parameter outside the unit disc",
                          "inconsistent boundary generator"}


def test_masked_rejection_in_a_dead_level():
    """Rank-d/2 corner input at d = 9: every level past band 4 is dead, and
    the masked-entry check of such a level rejects as the reference does,
    at the corner (0, 8)."""
    rng = np.random.default_rng(8001)
    hits = 0
    for _ in range(20):
        s = _rank_half_corner(rng, 9)
        _, ref = _outcome(_reference_inverse, s)
        _, err = _outcome(displacement_inverse, s)
        assert (err.reason, err.entry, err.band) == (ref.reason, ref.entry, ref.band)
        assert abs(err.value - ref.value) <= 1e-14 * abs(ref.value)
        if ref.reason == "inconsistent degenerate entry":
            assert (ref.entry, ref.band) == ((0, 8), 8)
            hits += 1
    assert hits == 8


def test_zero_diagonal_rejection_names_first_band():
    """An entry over a vanished diagonal is reported at its first failing band,
    as ``inverse`` reports it, not at the first entry in row-major order."""
    s = np.diag([1.0, 1.0, 0.0, 0.0])
    s[0, 3] = s[3, 0] = s[1, 2] = s[2, 1] = 0.5
    for route in (inverse, displacement_inverse):
        with pytest.raises(NotPSDError) as info:
            route(s)
        err = info.value
        assert (err.reason, err.entry, err.band, err.value) == (
            "inconsistent degenerate entry", (1, 2), 1, 0.5)


def test_routes_name_different_entries_for_one_band_1_rejection():
    """Pins a known disagreement as it stands: ``inverse`` accepts
    |gamma_01| = 1 without a proportionality check and rejects one window
    later, at (1, 2); ``displacement_inverse`` rejects (0, 1) itself."""
    s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    expected = {inverse: ("parameter outside the unit disc", (1, 2), 1, 2.0),
                displacement_inverse: ("inconsistent boundary generator", (0, 1), 1, 2.0)}
    for route, want in expected.items():
        with pytest.raises(NotPSDError) as info:
            route(s)
        err = info.value
        assert (err.reason, err.entry, err.band, err.value) == want
