import numpy as np
import pytest

from schurq.displacement import GeneratorState, displacement_inverse
from schurq.linalg import NotPSDError, maxnorm
from schurq.params import SchurParams, cholesky_factor, forward, inverse


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


def test_rejects_indefinite():
    with pytest.raises(NotPSDError):
        displacement_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPSDError):
        displacement_inverse(np.diag([1.0, -1.0]))
    with pytest.raises(NotPSDError):
        displacement_inverse(np.array([[0.0, 0.5], [0.5, 1.0]]))


def test_generator_states_and_cholesky_columns():
    rng = np.random.default_rng(21)
    d = 6
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    s = x.conj().T @ x
    p, states = displacement_inverse(s, collect_states=True)
    assert all(isinstance(st, GeneratorState) for st in states)
    # every accepted node satisfies the signature inequality
    assert min(st.d_top for st in states) >= -1e-9 * (1 + maxnorm(s))
    # time-0 columns assemble the (lower) unit Cholesky factor
    lam = np.zeros((d, d), dtype=complex)
    for st in states:
        if st.cholesky_column is not None:
            lam[st.step:, st.step] = st.cholesky_column
    np.testing.assert_allclose(lam, cholesky_factor(p).conj().T, atol=1e-10)


def test_states_counts():
    _, states = displacement_inverse(np.eye(4), collect_states=True)
    # level m has d - m nodes
    assert len(states) == 4 + 3 + 2 + 1
