import math
import warnings

import numpy as np
import pytest

from schurq.displacement import displacement_inverse
from schurq.linalg import NotPSDError, maxnorm
from schurq.params import SchurParams, forward, inverse


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
    RuntimeWarnings and a 'generator signature violated' rejection at -inf)."""
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
