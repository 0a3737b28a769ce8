"""Channel layer: Choi/map plumbing, Kraus extraction, capacity, qubit NF."""

import math

import numpy as np
import pytest

from schurq.channels import (
    ChoiMatrix,
    KrausSet,
    LinearMap,
    QubitChannelNF,
    adjoint,
    apply,
    capacity_D,
    choi_from_map,
    choi_tensor,
    completeness_identity,
    depolarizing_channel,
    identity_channel,
    is_completely_positive,
    is_trace_preserving,
    is_unital,
    kraus_from_choi,
    map_from_apply,
    map_from_choi,
    qubit_nf_choi,
    qubit_nf_map,
    qubit_nf_params,
)
from schurq.linalg import NotPSDError, maxnorm, reference_determinant
from schurq.params import defect, inverse

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_choi(rng, d_in, d_out):
    n = d_in * d_out
    x = _rand_complex(rng, (n, n))
    return ChoiMatrix(d_in, d_out, x.conj().T @ x)


def _random_tp_choi(rng, d):
    """Choi matrix of a random trace-preserving CP channel."""
    ops = [_rand_complex(rng, (d, d)) for _ in range(d * d)]
    b = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(b)
    c = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    ops = [k @ c for k in ops]

    def phi(e):
        return sum(k @ e @ k.conj().T for k in ops)

    return choi_from_map(map_from_apply(d, d, phi))


# ---------------------------------------------------------------------------
# Map <-> Choi plumbing


def test_identity_choi_corner_pattern():
    c = choi_from_map(identity_channel(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    assert np.array_equal(c.s, expected)


def test_depolarizing_choi_is_half_identity():
    c = choi_from_map(depolarizing_channel(2))
    assert np.array_equal(c.s, 0.5 * np.eye(4))


def test_zero_map_choi_is_zero():
    m = LinearMap(3, 2, np.zeros((4, 9), dtype=complex))
    assert maxnorm(choi_from_map(m).s) == 0.0


def test_choi_map_round_trip_exact():
    rng = np.random.default_rng(31)
    for d_in, d_out in [(2, 2), (2, 3), (3, 2), (4, 4)]:
        action = _rand_complex(rng, (d_out * d_out, d_in * d_in))
        m = LinearMap(d_in, d_out, action)
        back = map_from_choi(choi_from_map(m))
        assert np.array_equal(back.action, action)
        assert (back.d_in, back.d_out) == (d_in, d_out)


def test_choi_blocks_are_unit_images():
    rng = np.random.default_rng(32)
    d_in, d_out = 3, 2
    m = LinearMap(d_in, d_out, _rand_complex(rng, (4, 9)))
    c = choi_from_map(m)
    for k in range(d_in):
        for j in range(d_in):
            e = np.zeros((d_in, d_in), dtype=complex)
            e[k, j] = 1.0
            block = c.s[k * d_out:(k + 1) * d_out, j * d_out:(j + 1) * d_out]
            assert np.array_equal(block, apply(m, e))


def test_apply_identity_and_depolarizing():
    rng = np.random.default_rng(33)
    x = _rand_complex(rng, (2, 2))
    assert maxnorm(apply(identity_channel(2), x) - x) == 0.0
    assert maxnorm(apply(depolarizing_channel(2), PAULI[2])) <= 1e-15


def test_apply_rejects_wrong_shape():
    with pytest.raises(ValueError):
        apply(identity_channel(2), np.zeros((3, 3)))


def test_linear_map_validates_action_shape():
    with pytest.raises(ValueError):
        LinearMap(2, 2, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ChoiMatrix(2, 2, np.zeros((3, 3)))


def test_containers_reject_nonpositive_dimensions():
    """(-2)*(-2) = 4 matches a 4x4 Choi matrix, and (-1)^2 = 1 a 1x1 action:
    the shape check alone lets negative dimensions through."""
    with pytest.raises(ValueError, match="d_in must be >= 1"):
        ChoiMatrix(-2, -2, np.eye(4))
    with pytest.raises(ValueError, match="d_out must be >= 1"):
        ChoiMatrix(1, 0, np.zeros((0, 0)))
    with pytest.raises(ValueError, match="d_in must be >= 1"):
        LinearMap(-1, -1, np.eye(1))
    with pytest.raises(ValueError, match="d_out must be >= 1"):
        LinearMap(2, -2, np.eye(4))


# ---------------------------------------------------------------------------
# Adjoint and structural checks


def test_adjoint_trace_pairing():
    rng = np.random.default_rng(34)
    m = LinearMap(3, 2, _rand_complex(rng, (4, 9)))
    ma = adjoint(m)
    assert (ma.d_in, ma.d_out) == (2, 3)
    for _ in range(20):
        a = _rand_complex(rng, (2, 2))
        b = _rand_complex(rng, (3, 3))
        lhs = np.trace(a.conj().T @ apply(m, b))
        rhs = np.trace(apply(ma, a).conj().T @ b)
        assert abs(lhs - rhs) <= 1e-10


def test_adjoint_identity_is_identity():
    m = adjoint(identity_channel(3))
    assert np.array_equal(m.action, np.eye(9))


def test_adjoint_of_unitary_conjugation():
    rng = np.random.default_rng(35)
    u, _ = np.linalg.qr(_rand_complex(rng, (3, 3)))
    m = map_from_apply(3, 3, lambda e: u @ e @ u.conj().T)
    ma = adjoint(m)
    x = _rand_complex(rng, (3, 3))
    assert maxnorm(apply(ma, x) - u.conj().T @ x @ u) <= 1e-12


def test_trace_preserving_iff_adjoint_unital():
    rng = np.random.default_rng(36)
    tp = map_from_choi(_random_tp_choi(rng, 3))
    assert is_trace_preserving(tp)
    assert is_unital(adjoint(tp))
    not_tp = map_from_choi(_random_choi(rng, 2, 2))
    assert not is_trace_preserving(not_tp)
    assert is_trace_preserving(identity_channel(4))
    assert is_unital(identity_channel(4))


def test_complete_positivity_verdicts():
    assert is_completely_positive(choi_from_map(identity_channel(2)))
    assert is_completely_positive(choi_from_map(depolarizing_channel(3)))
    transpose = map_from_apply(2, 2, lambda e: e.T)
    assert not is_completely_positive(choi_from_map(transpose))


# ---------------------------------------------------------------------------
# Kraus generators


def test_kraus_identity_channel_single_generator():
    ks = kraus_from_choi(choi_from_map(identity_channel(2)))
    assert len(ks.generators) == 1
    g = ks.generators[0]
    phase = g[0, 0] / abs(g[0, 0])
    assert maxnorm(g / phase - np.eye(2)) <= 1e-12
    assert completeness_identity(ks) == "both"


def test_kraus_depolarizing_four_sparse_generators():
    ks = kraus_from_choi(choi_from_map(depolarizing_channel(2)))
    assert len(ks.generators) == 4
    for g in ks.generators:
        mods = np.abs(g).ravel()
        assert np.sum(mods > 1e-12) == 1
        assert abs(np.max(mods) - 1 / math.sqrt(2)) <= 1e-12
    assert completeness_identity(ks) == "both"


def test_kraus_reconstruction_random():
    rng = np.random.default_rng(37)
    for d_in, d_out in [(2, 2), (3, 3), (2, 3), (3, 2)]:
        for _ in range(10):
            c = _random_choi(rng, d_in, d_out)
            ks = kraus_from_choi(c)
            assert all(g.shape == (d_out, d_in) for g in ks.generators)
            m = map_from_choi(c)
            for l in range(d_in):
                for mm in range(d_in):
                    e = np.zeros((d_in, d_in), dtype=complex)
                    e[l, mm] = 1.0
                    via = sum(k @ e @ k.conj().T for k in ks.generators)
                    assert maxnorm(via - apply(m, e)) <= 1e-9


def test_kraus_row_stack_factors_choi():
    rng = np.random.default_rng(38)
    c = _random_choi(rng, 2, 3)
    a = kraus_from_choi(c).row_stack()
    assert maxnorm(a.conj().T @ a - c.s) <= 1e-10 * (1 + maxnorm(c.s))


def test_kraus_generators_match_closed_form_entries():
    """Qubit generators expand into the documented products of parameters,
    defects and diagonal factors (rows of the scaled Cholesky factor)."""
    rng = np.random.default_rng(39)
    for _ in range(20):
        x = _rand_complex(rng, (4, 4))
        s = x.conj().T @ x
        p = inverse(s)
        l = p.diag
        g12, g13, g14 = p.gamma[0, 1], p.gamma[0, 2], p.gamma[0, 3]
        g23, g24, g34 = p.gamma[1, 2], p.gamma[1, 3], p.gamma[2, 3]
        d12, d13, d14 = defect(g12), defect(g13), defect(g14)
        d23, d24, d34 = defect(g23), defect(g24), defect(g34)
        z = g12 * g23 + d12 * g13 * d23
        w = (g12 * g23 * g34 + d12 * g13 * d23 * g34 + g12 * d23 * g24 * d34
             - d12 * g13 * np.conj(g23) * g24 * d34
             + d12 * d13 * g14 * d24 * d34)
        xx = (d12 * g23 * g34 + d12 * d23 * g24 * d34
              - np.conj(g12) * g13 * d23 * g34
              + np.conj(g12) * g13 * np.conj(g23) * g24 * d34
              - np.conj(g12) * d13 * g14 * d24 * d34)
        y = (d13 * d23 * g34 - d13 * np.conj(g23) * g24 * d34
             - np.conj(g13) * g14 * d24 * d34)
        a1 = np.array([[l[0], g12 * l[1]], [z * l[2], w * l[3]]])
        a2 = np.array([[0.0, d12 * l[1]],
                       [(d12 * g23 - np.conj(g12) * g13 * d23) * l[2], xx * l[3]]])
        a3 = np.array([[0.0, 0.0], [d13 * d23 * l[2], y * l[3]]])
        a4 = np.array([[0.0, 0.0], [0.0, d14 * d24 * d34 * l[3]]])
        ks = kraus_from_choi(ChoiMatrix(2, 2, s))
        assert len(ks.generators) == 4
        for a_n, k_n in zip((a1, a2, a3, a4), ks.generators):
            assert maxnorm(k_n - a_n.conj().T) <= 1e-12 * (1 + maxnorm(s))


def test_kraus_completeness_identity_on_tp_channel():
    rng = np.random.default_rng(40)
    ks = kraus_from_choi(_random_tp_choi(rng, 3))
    assert completeness_identity(ks) in ("sum K*K = I", "both")


def test_kraus_rejects_non_psd_choi():
    s = np.diag([1.0, -0.5, 1.0, 1.0]).astype(complex)
    with pytest.raises(NotPSDError):
        kraus_from_choi(ChoiMatrix(2, 2, s))


def test_kraus_drops_zero_generators():
    rng = np.random.default_rng(41)
    v = _rand_complex(rng, 4)
    c = ChoiMatrix(2, 2, np.outer(v, v.conj()))
    ks = kraus_from_choi(c)
    assert len(ks.generators) == 1
    # S = A* A with A of r rows has rank r: exactly r generators, no
    # rounding-noise rows from parameters a few ulps inside the circle.
    for d_in in (2, 3):
        for d_out in (2, 3):
            n = d_in * d_out
            for r in range(1, n + 1):
                for _ in range(3):
                    a = _rand_complex(rng, (r, n))
                    ks = kraus_from_choi(ChoiMatrix(d_in, d_out, a.conj().T @ a))
                    assert len(ks.generators) == r, (d_in, d_out, r)


def test_kraus_set_records_convention():
    ks = kraus_from_choi(choi_from_map(identity_channel(2)))
    assert "sum_n K[n]* @ K[n] = I(d_in)" in ks.convention
    assert "S = A* A" in ks.convention


# ---------------------------------------------------------------------------
# Capacity and tensoring


def test_capacity_depolarizing_log2():
    c = choi_from_map(depolarizing_channel(2))
    assert abs(capacity_D(c) - math.log(2)) <= 1e-12


def test_capacity_identity_infinite():
    assert capacity_D(choi_from_map(identity_channel(2))) == math.inf


def test_capacity_is_positive_zero_at_unit_determinant():
    for c in (ChoiMatrix(1, 1, np.array([[1.0]])), ChoiMatrix(2, 2, np.eye(4))):
        cap = capacity_D(c)
        assert cap == 0.0 and not math.copysign(1.0, cap) < 0


def test_capacity_matches_determinant():
    rng = np.random.default_rng(42)
    for _ in range(25):
        c = _random_choi(rng, 2, 2)
        expected = -math.log(reference_determinant(c.s)) / 4
        assert abs(capacity_D(c) - expected) <= 1e-10


def test_capacity_additive_under_tensoring():
    rng = np.random.default_rng(43)
    for _ in range(20):
        c1 = _random_choi(rng, 2, 2)
        c2 = _random_choi(rng, 3, 3)
        total = capacity_D(choi_tensor(c1, c2))
        assert abs(total - capacity_D(c1) - capacity_D(c2)) <= 1e-8


def test_capacity_tensor_of_two_depolarizing():
    c = choi_from_map(depolarizing_channel(2))
    assert abs(capacity_D(choi_tensor(c, c)) - 2 * math.log(2)) <= 1e-12


def test_choi_tensor_acts_as_product_channel():
    rng = np.random.default_rng(44)
    c1 = _random_choi(rng, 2, 3)
    c2 = _random_choi(rng, 3, 2)
    ct = choi_tensor(c1, c2)
    assert (ct.d_in, ct.d_out) == (6, 6)
    m1, m2, mt = map_from_choi(c1), map_from_choi(c2), map_from_choi(ct)
    for _ in range(5):
        a = _rand_complex(rng, (2, 2))
        b = _rand_complex(rng, (3, 3))
        lhs = apply(mt, np.kron(a, b))
        rhs = np.kron(apply(m1, a), apply(m2, b))
        assert maxnorm(lhs - rhs) <= 1e-10 * (1 + maxnorm(rhs))


# ---------------------------------------------------------------------------
# Qubit normal form


def test_qubit_nf_pauli_action():
    rng = np.random.default_rng(45)
    t = rng.uniform(-0.3, 0.3, 3)
    lam = rng.uniform(-0.5, 0.5, 3)
    m = qubit_nf_map(QubitChannelNF(t=t, lam=lam))
    eye = np.eye(2, dtype=complex)
    image_of_eye = eye + sum(t[k] * PAULI[k] for k in range(3))
    assert maxnorm(apply(m, eye) - image_of_eye) <= 1e-14
    for k in range(3):
        assert maxnorm(apply(m, PAULI[k]) - lam[k] * PAULI[k]) <= 1e-14


def test_qubit_nf_choi_special_points():
    zero = QubitChannelNF(t=np.zeros(3), lam=np.zeros(3))
    c_phi, c_hat = qubit_nf_choi(zero)
    assert maxnorm(c_phi.s - 0.5 * np.eye(4)) == 0.0
    assert maxnorm(c_hat.s - 0.5 * np.eye(4)) == 0.0

    ident = QubitChannelNF(t=np.zeros(3), lam=np.ones(3))
    c_phi, _ = qubit_nf_choi(ident)
    assert maxnorm(c_phi.s - choi_from_map(identity_channel(2)).s) <= 1e-15

    shift = QubitChannelNF(t=np.array([0.0, 0.0, 1.0]), lam=np.zeros(3))
    c_phi, _ = qubit_nf_choi(shift)
    assert np.allclose(np.diag(c_phi.s).real, [1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_qubit_nf_choi_pair_is_map_and_adjoint():
    """The closed forms equal the Choi matrices of the tabulated Pauli action
    and of its adjoint."""
    rng = np.random.default_rng(46)
    draws = [QubitChannelNF(t=rng.uniform(-1, 1, 3), lam=rng.uniform(-1, 1, 3))
             for _ in range(500)]
    special = [QubitChannelNF(t=np.zeros(3), lam=np.zeros(3)),
               QubitChannelNF(t=np.zeros(3), lam=np.ones(3)),
               QubitChannelNF(t=np.array([0.0, 0.0, 1.0]), lam=np.zeros(3))]
    for nf in draws + special:
        c_phi, c_hat = qubit_nf_choi(nf)
        m = qubit_nf_map(nf)
        assert maxnorm(c_phi.s - choi_from_map(m).s) <= 1e-14
        assert maxnorm(c_hat.s - choi_from_map(adjoint(m)).s) <= 1e-14
        assert maxnorm(c_phi.s - c_phi.s.conj().T) == 0.0
        assert maxnorm(c_hat.s - c_hat.s.conj().T) == 0.0


def test_qubit_nf_params_hand_values():
    nf = QubitChannelNF(t=np.zeros(3), lam=np.array([0.5, 0.25, 0.0]))
    _, report = qubit_nf_params(nf)
    assert report.cp
    assert abs(report.gamma[(2, 3)] - 0.25) <= 1e-15
    assert abs(report.gamma[(1, 4)] - 0.75) <= 1e-15
    assert abs(report.margins[4] - 0.75) <= 1e-15

    zero = QubitChannelNF(t=np.zeros(3), lam=np.zeros(3))
    params, report = qubit_nf_params(zero)
    assert report.cp
    assert all(v == 0.0 for v in report.gamma.values())
    assert np.array_equal(params.diag, np.ones(4))


def test_qubit_nf_params_degenerate_masking():
    nf = QubitChannelNF(t=np.zeros(3), lam=np.array([0.0, 0.0, 1.0]))
    params, report = qubit_nf_params(nf)
    assert report.cp
    assert report.gamma[(2, 3)] is None
    assert np.allclose(report.s_diag, [2.0, 0.0, 0.0, 2.0])
    assert not params.defined[1, 2]


def test_qubit_nf_params_degenerate_violation():
    # boundary |G23| = 1 demands t1 = t2 = 0; violate that
    nf = QubitChannelNF(t=np.array([0.5, 0.0, 0.0]),
                        lam=np.array([1.0, 0.0, 0.0]))
    _, report = qubit_nf_params(nf)
    assert not report.cp
    assert any("degenerate" in note for note in report.notes)


def test_qubit_nf_params_modulus_violation():
    nf = QubitChannelNF(t=np.zeros(3), lam=np.array([1.0, -1.0, 0.0]))
    _, report = qubit_nf_params(nf)
    assert not report.cp
    assert report.margins[4] < 0
    assert any("Gamma23" in note for note in report.notes)


def test_qubit_nf_params_agree_with_generic_extraction():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 200:
        nf = QubitChannelNF(t=rng.uniform(-1, 1, 3), lam=rng.uniform(-1, 1, 3))
        c_phi, c_hat = qubit_nf_choi(nf)
        params, report = qubit_nf_params(nf)
        assert report.cp == is_completely_positive(c_phi)
        if not report.cp:
            continue
        checked += 1
        generic = inverse(2.0 * c_hat.s)
        assert np.array_equal(params.defined, generic.defined)
        assert maxnorm(params.diag - generic.diag) <= 1e-10
        assert maxnorm(params.gamma - generic.gamma) <= 1e-10


def test_qubit_nf_gamma_scale_invariance():
    rng = np.random.default_rng(48)
    for _ in range(20):
        x = _rand_complex(rng, (4, 4))
        s = x.conj().T @ x
        p1 = inverse(s)
        p2 = inverse(2.0 * s)
        assert maxnorm(p1.gamma - p2.gamma) <= 1e-12
        assert maxnorm(p2.diag - math.sqrt(2.0) * p1.diag) <= 1e-12
