"""CLI: file formats, exit codes, pipelines, and golden-file stability.

Golden outputs under ``tests/golden`` were produced by the CLI itself:

    schurq reconstruct --in cosine_params.json --out cosine_matrix.json
    schurq parametrize --in tensor_matrix.json --out tensor_params.json
    schurq parametrize --in nf_matrix.json --out nf_params.json
    schurq channel --choi depol_choi.json --din 2 --dout 2 --capacity
    schurq random --kind psd --dim 3 --seed 42 --out random_psd_seed42.json

and must regenerate byte-identically.
"""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schurq
from schurq.channels import ChoiMatrix, is_trace_preserving, kraus_from_choi, map_from_choi
from schurq.cli import main
from schurq.fileio import (
    dumps_canonical,
    matrix_from_obj,
    matrix_to_obj,
    params_from_obj,
    params_to_obj,
    write_text,
)
from schurq.linalg import maxnorm
from schurq.params import SchurParams, forward

GOLDEN = Path(__file__).parent / "golden"


def _write_matrix(path, m):
    write_text(str(path), dumps_canonical(matrix_to_obj(np.asarray(m, dtype=complex))))


def _read_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_obj(json.load(fh))


def _read_params(path):
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_obj(json.load(fh))


def _bell():
    rho = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            rho[i, j] = 0.5
    return rho


def _werner(p):
    return p * _bell() + (1 - p) * np.eye(4) / 4


# ---------------------------------------------------------------------------
# File formats


def test_matrix_file_bit_exact():
    rng = np.random.default_rng(50)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = matrix_from_obj(json.loads(dumps_canonical(matrix_to_obj(m))))
    assert np.array_equal(back, m)


def test_params_file_round_trip():
    rng = np.random.default_rng(51)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    from schurq.params import inverse
    p = inverse(x.conj().T @ x)
    back = params_from_obj(json.loads(dumps_canonical(params_to_obj(p))))
    assert np.array_equal(back.diag, p.diag)
    assert np.array_equal(back.gamma, p.gamma)
    assert np.array_equal(back.defined, p.defined)


def test_params_file_rejects_bad_content():
    base = json.loads(dumps_canonical(params_to_obj(
        SchurParams(2, np.ones(2), np.zeros((2, 2), complex)))))
    bad_mod = json.loads(json.dumps(base))
    bad_mod["gamma"][0]["re"] = 1.5
    with pytest.raises(ValueError):
        params_from_obj(bad_mod)
    bad_masked = json.loads(json.dumps(base))
    bad_masked["gamma"][0]["defined"] = False
    bad_masked["gamma"][0]["re"] = 0.5
    with pytest.raises(ValueError):
        params_from_obj(bad_masked)
    bad_count = json.loads(json.dumps(base))
    bad_count["gamma"] = []
    with pytest.raises(ValueError):
        params_from_obj(bad_count)
    bad_idx = json.loads(json.dumps(base))
    bad_idx["gamma"][0]["k"] = 2
    bad_idx["gamma"][0]["j"] = 1
    with pytest.raises(ValueError):
        params_from_obj(bad_idx)
    for flag in ("false", "true", 0, 1, None):  # only JSON booleans
        bad_flag = json.loads(json.dumps(base))
        bad_flag["gamma"][0]["defined"] = flag
        with pytest.raises(ValueError, match="defined must be true or false"):
            params_from_obj(bad_flag)
    # Sizes and indices are JSON integers, values JSON numbers: nothing is
    # truncated or coerced.
    for path, value, reason in (
            (("dim",), 2.9, "dim must be an integer"),
            (("dim",), True, "dim must be an integer"),
            (("dim",), "2", "dim must be an integer"),
            (("gamma", 0, "k"), 1.5, "k must be an integer"),
            (("gamma", 0, "j"), True, "j must be an integer"),
            (("gamma", 0, "re"), "0.5", "re is not numeric"),
            (("gamma", 0, "im"), False, "im is not numeric"),
            (("diag", 1), "1.0", "diag entry 1 is not numeric"),
            (("diag", 0), True, "diag entry 0 is not numeric")):
        bad = json.loads(json.dumps(base))
        *parents, last = path
        node = bad
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ValueError, match=reason):
            params_from_obj(bad)
    ints = json.loads(json.dumps(base))
    ints["diag"] = [1, 1]
    ints["gamma"][0]["re"] = 0
    assert params_from_obj(ints).diag.tolist() == [1.0, 1.0]


def test_params_file_accepts_what_validate_accepts():
    """The file reader and SchurParams.validate share one disc bound, so a
    modulus inside its allowance (1 + DEFAULT_TOL.abs_eps) reads back."""
    obj = {"dim": 2, "diag": [1.0, 1.0],
           "gamma": [{"k": 1, "j": 2, "re": 1.0 + 5e-11, "im": 0.0, "defined": True}]}
    p = params_from_obj(obj)
    assert p.gamma[0, 1] == 1.0 + 5e-11
    assert np.isfinite(forward(p)).all()


# ---------------------------------------------------------------------------
# parametrize / reconstruct


def test_parametrize_identity(tmp_path):
    _write_matrix(tmp_path / "m.json", np.eye(3))
    assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "p.json")]) == 0
    p = _read_params(tmp_path / "p.json")
    assert np.array_equal(p.diag, np.ones(3))
    assert maxnorm(p.gamma) == 0.0
    assert p.defined[np.triu_indices(3, 1)].all()


def test_parametrize_worked_3x3(tmp_path):
    s = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]])
    _write_matrix(tmp_path / "m.json", s)
    assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "p.json")]) == 0
    p = _read_params(tmp_path / "p.json")
    assert abs(p.gamma[0, 1] - 0.6) <= 1e-15
    assert abs(p.gamma[1, 2] - 0.5) <= 1e-15
    assert abs(p.gamma[0, 2]) <= 1e-15


def test_parametrize_indefinite_exit2(tmp_path, capsys):
    _write_matrix(tmp_path / "m.json", np.diag([1.0, -1.0]))
    assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "p.json")]) == 2
    err = capsys.readouterr().err
    assert "not positive semidefinite" in err


def test_parametrize_band_diagnostic(tmp_path, capsys):
    s = np.array([[1.0, 2.0], [2.0, 1.0]])  # off-diagonal too large
    _write_matrix(tmp_path / "m.json", s)
    assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "p.json")]) == 2
    err = capsys.readouterr().err
    assert "band 1" in err and "2" in err


def test_parametrize_usage_errors(tmp_path, capsys):
    assert main(["parametrize", "--in", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "p.json")]) == 1
    _write_matrix(tmp_path / "nh.json", np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert main(["parametrize", "--in", str(tmp_path / "nh.json"),
                 "--out", str(tmp_path / "p.json")]) == 1
    capsys.readouterr()


def test_parametrize_non_numeric_entry_exit1(tmp_path, capsys):
    """A component that is not a JSON number (null, list, string, boolean) or
    a size that is not a JSON integer is a file error: one line on stderr,
    exit 1."""
    for pair in ([None, 0.0], [0.0, [1.0]], ["2", True], [True, 0.0], [0.0, "0"]):
        obj = {"rows": 1, "cols": 1, "data": [pair]}
        write_text(str(tmp_path / "m.json"), dumps_canonical(obj))
        assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "p.json")]) == 1, pair
        err = capsys.readouterr().err
        assert "matrix entry 0 is not numeric" in err and err.count("\n") == 1, err
    # Sizes are JSON integers: 1.7 is not truncated, "1" is not parsed.
    for rows, cols, reason in ((1.7, 1, "rows"), (1, "1", "cols"), (True, 1, "rows")):
        obj = {"rows": rows, "cols": cols, "data": [[2.0, 0.0]]}
        write_text(str(tmp_path / "m.json"), dumps_canonical(obj))
        assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "p.json")]) == 1, (rows, cols)
        err = capsys.readouterr().err
        assert f"{reason} must be an integer" in err and err.count("\n") == 1, err
    # Integer components are JSON numbers and stay accepted.
    write_text(str(tmp_path / "m.json"),
               dumps_canonical({"rows": 1, "cols": 1, "data": [[2, 0]]}))
    assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "p.json")]) == 0


def test_pipeline_identity_both_methods(tmp_path):
    """random -> parametrize -> reconstruct reproduces the file to 1e-9."""
    for seed in (1, 2, 3):
        mfile = tmp_path / f"m{seed}.json"
        assert main(["random", "--kind", "psd", "--dim", "5",
                     "--seed", str(seed), "--out", str(mfile)]) == 0
        m = _read_matrix(mfile)
        for method in ("direct", "displacement"):
            pfile = tmp_path / f"p{seed}{method}.json"
            rfile = tmp_path / f"r{seed}{method}.json"
            assert main(["parametrize", "--in", str(mfile), "--out", str(pfile),
                         "--method", method]) == 0
            assert main(["reconstruct", "--in", str(pfile),
                         "--out", str(rfile)]) == 0
            back = _read_matrix(rfile)
            assert maxnorm(back - m) <= 1e-9 * (1 + maxnorm(m))


def test_reconstruct_cholesky_output(tmp_path):
    _write_matrix(tmp_path / "m.json", np.diag([4.0, 1.0]))
    main(["parametrize", "--in", str(tmp_path / "m.json"),
          "--out", str(tmp_path / "p.json")])
    assert main(["reconstruct", "--in", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "r.json"),
                 "--cholesky", str(tmp_path / "c.json")]) == 0
    u = _read_matrix(tmp_path / "c.json")
    assert maxnorm(u.conj().T @ u - np.diag([4.0, 1.0])) <= 1e-12


def test_reconstruct_unit_modulus_chain_rank_one(tmp_path):
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[0, 1] = 1.0
    gamma[1, 2] = 1.0
    defined = np.zeros((3, 3), dtype=bool)
    defined[0, 1] = defined[1, 2] = True  # (1,3) masked by the zero defect
    p = SchurParams(3, np.ones(3), gamma, defined)
    write_text(str(tmp_path / "p.json"), dumps_canonical(params_to_obj(p)))
    assert main(["reconstruct", "--in", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "r.json")]) == 0
    s = _read_matrix(tmp_path / "r.json")
    assert maxnorm(s - np.ones((3, 3))) <= 1e-12  # rank one
    assert abs(np.linalg.det(s)) <= 1e-12


def test_reconstruct_bad_params_exit1(tmp_path, capsys):
    def entry(**kw):
        return dict({"k": 1, "j": 2, "re": 0.0, "im": 0.0, "defined": True}, **kw)
    bad = [
        {"dim": 2, "diag": [1.0, 1.0], "gamma": [entry(re=1.5)]},
        {"dim": 2, "diag": [1.0, 1.0], "gamma": [entry(re=0.5, defined=False)]},
        {"dim": 2, "diag": [-1.0, 1.0], "gamma": [entry()]},
        {"dim": 2, "diag": [1.0, None], "gamma": [entry()]},
        {"dim": 3, "diag": [1.0] * 3, "gamma": [entry(), entry(), entry(j=3)]},  # (1, 2) twice
    ]
    for obj in bad:
        write_text(str(tmp_path / "p.json"), dumps_canonical(obj))
        assert main(["reconstruct", "--in", str(tmp_path / "p.json"),
                     "--out", str(tmp_path / "r.json")]) == 1, obj
    capsys.readouterr()


# ---------------------------------------------------------------------------
# state


def test_state_maximally_mixed(tmp_path, capsys):
    _write_matrix(tmp_path / "m.json", np.eye(2) / 2)
    assert main(["state", "--in", str(tmp_path / "m.json"), "--report"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pure"] is False
    assert abs(rep["entropy_E"] + math.log(2)) <= 1e-12
    assert "pure_vector" not in rep


def test_state_bell(tmp_path, capsys):
    _write_matrix(tmp_path / "m.json", _bell())
    assert main(["state", "--in", str(tmp_path / "m.json"), "--report"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pure"] is True
    assert rep["entropy_E"] == "-inf"
    assert abs(rep["entropy_E0"]) <= 1e-10
    v = np.array([complex(re, im) for re, im in rep["pure_vector"]])
    sq2 = 1 / math.sqrt(2)
    assert maxnorm(v - np.array([sq2, 0, 0, sq2])) <= 1e-10


def test_state_rejections(tmp_path, capsys):
    _write_matrix(tmp_path / "m.json", np.eye(2))  # trace 2
    assert main(["state", "--in", str(tmp_path / "m.json")]) == 2
    _write_matrix(tmp_path / "ind.json", np.diag([1.5, -0.5]))
    assert main(["state", "--in", str(tmp_path / "ind.json")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# channel


def test_channel_depolarizing(tmp_path, capsys):
    _write_matrix(tmp_path / "c.json", 0.5 * np.eye(4))
    assert main(["channel", "--choi", str(tmp_path / "c.json"),
                 "--din", "2", "--dout", "2",
                 "--kraus", str(tmp_path / "k"), "--capacity"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["capacity"] - math.log(2)) <= 1e-12
    files = sorted(tmp_path.glob("k_*.json"))
    assert len(files) == 4
    g = _read_matrix(files[0])
    assert g.shape == (2, 2)
    mods = np.abs(g).ravel()
    assert np.sum(mods > 1e-12) == 1
    assert abs(mods.max() - 1 / math.sqrt(2)) <= 1e-12


def test_channel_identity_single_kraus_file(tmp_path, capsys):
    choi = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            choi[i, j] = 1.0
    _write_matrix(tmp_path / "c.json", choi)
    assert main(["channel", "--choi", str(tmp_path / "c.json"),
                 "--din", "2", "--dout", "2", "--capacity",
                 "--kraus", str(tmp_path / "k")]) == 0
    assert json.loads(capsys.readouterr().out)["capacity"] == "+inf"
    assert len(sorted(tmp_path.glob("k_*.json"))) == 1


def test_channel_extracts_once(tmp_path, capsys, monkeypatch):
    """Kraus files and capacity come from one extraction of the Choi matrix,
    and the factor is read off its lattice: no second pass over the bands."""
    import schurq.channels as channels
    import schurq.cli as cli
    import schurq.params as params

    calls = {"extract": 0, "cholesky_factor": 0}

    def counted(module, name):
        wrapped = getattr(module, name)

        def call(*args, **kwargs):
            calls[name.lstrip("_")] += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(channels, "_extract")
    counted(params, "cholesky_factor")
    counted(cli, "cholesky_factor")
    assert main(["channel", "--choi", str(GOLDEN / "depol_choi.json"),
                 "--din", "2", "--dout", "2",
                 "--kraus", str(tmp_path / "k"), "--capacity"]) == 0
    assert calls == {"extract": 1, "cholesky_factor": 0}
    assert capsys.readouterr().out == (GOLDEN / "depol_capacity.json").read_text()
    ks = kraus_from_choi(ChoiMatrix(2, 2, _read_matrix(GOLDEN / "depol_choi.json")))
    files = sorted(tmp_path.glob("k_*.json"))
    assert len(files) == len(ks.generators)
    for path, gen in zip(files, ks.generators):
        assert path.read_bytes() == dumps_canonical(matrix_to_obj(gen)).encode()


def test_channel_transpose_exit2(tmp_path, capsys):
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0] = choi[3, 3] = 1.0
    choi[1, 2] = choi[2, 1] = 1.0
    _write_matrix(tmp_path / "c.json", choi)
    assert main(["channel", "--choi", str(tmp_path / "c.json"),
                 "--din", "2", "--dout", "2"]) == 2
    capsys.readouterr()


def test_channel_dim_mismatch_exit1(tmp_path, capsys):
    _write_matrix(tmp_path / "c.json", 0.5 * np.eye(4))
    assert main(["channel", "--choi", str(tmp_path / "c.json"),
                 "--din", "2", "--dout", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("din, dout, flag", [("-2", "-2", "--din"), ("0", "2", "--din"),
                                             ("2", "0", "--dout"), ("1", "-4", "--dout")])
def test_channel_nonpositive_dims_exit1(tmp_path, capsys, din, dout, flag):
    """-2 x -2 = 4 would pass the shape check of a 4 x 4 file."""
    _write_matrix(tmp_path / "c.json", 0.5 * np.eye(4))
    assert main(["channel", "--choi", str(tmp_path / "c.json"),
                 "--din", din, "--dout", dout, "--capacity"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be positive")


@pytest.mark.parametrize("n, choi", [(1, [[1.0]]), (2, np.eye(4))])
def test_channel_capacity_zero_is_positive_zero(tmp_path, capsys, n, choi):
    """det S = 1 gives capacity +0.0, printed as 0.0 (not -0.0)."""
    _write_matrix(tmp_path / "c.json", np.array(choi))
    assert main(["channel", "--choi", str(tmp_path / "c.json"),
                 "--din", str(n), "--dout", str(n), "--capacity"]) == 0
    assert capsys.readouterr().out == '{\n  "capacity": 0.0\n}\n'


# ---------------------------------------------------------------------------
# separability


def test_separability_werner_both_methods(tmp_path, capsys):
    _write_matrix(tmp_path / "w5.json", _werner(0.5))
    _write_matrix(tmp_path / "w25.json", _werner(0.25))
    for path, expect in ((tmp_path / "w5.json", False), (tmp_path / "w25.json", True)):
        for method in ("ppt", "params"):
            assert main(["separability", "--in", str(path),
                         "--method", method]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["separable"] is expect
    # PPT witness values pin the partial-transpose eigenvalues
    main(["separability", "--in", str(tmp_path / "w5.json"), "--method", "ppt"])
    assert abs(json.loads(capsys.readouterr().out)["witness"] + 0.125) <= 1e-12


def test_separability_2x3(tmp_path, capsys):
    rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.2, 0.3, 0.5])).astype(complex)
    _write_matrix(tmp_path / "p.json", rho)
    assert main(["separability", "--in", str(tmp_path / "p.json"),
                 "--dims", "2x3"]) == 0
    assert json.loads(capsys.readouterr().out)["separable"] is True


def test_separability_usage_errors(tmp_path, capsys):
    _write_matrix(tmp_path / "w.json", _werner(0.5))
    # params method is qubit-pair only
    assert main(["separability", "--in", str(tmp_path / "w.json"),
                 "--dims", "2x3", "--method", "params"]) == 1
    # dims that do not match the matrix size
    _write_matrix(tmp_path / "m9.json", np.eye(9) / 9)
    assert main(["separability", "--in", str(tmp_path / "m9.json"),
                 "--dims", "2x2"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# random


def test_random_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    main(["random", "--kind", "state", "--dim", "4", "--seed", "9", "--out", str(a)])
    main(["random", "--kind", "state", "--dim", "4", "--seed", "9", "--out", str(b)])
    main(["random", "--kind", "state", "--dim", "4", "--seed", "10", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_random_state_passes_state_check(tmp_path, capsys):
    f = tmp_path / "s.json"
    assert main(["random", "--kind", "state", "--dim", "3", "--seed", "4",
                 "--out", str(f)]) == 0
    assert main(["state", "--in", str(f)]) == 0
    capsys.readouterr()


def test_random_tp_channel_is_trace_preserving(tmp_path):
    f = tmp_path / "c.json"
    assert main(["random", "--kind", "channel", "--dim", "3", "--seed", "6",
                 "--tp", "--out", str(f)]) == 0
    choi = ChoiMatrix(3, 3, _read_matrix(f))
    assert is_trace_preserving(map_from_choi(choi))


def test_random_tp_flag_usage(tmp_path, capsys):
    assert main(["random", "--kind", "psd", "--dim", "3", "--seed", "1",
                 "--tp", "--out", str(tmp_path / "x.json")]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# golden files


def test_golden_cosine_law(tmp_path):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (out1, out2):
        assert main(["reconstruct", "--in", str(GOLDEN / "cosine_params.json"),
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN / "cosine_matrix.json").read_bytes()
    s = _read_matrix(out1)
    theta, theta1, phi = 0.3, 0.4, 0.5
    expect = math.cos(theta) * math.cos(theta1) \
        + math.sin(theta) * math.sin(theta1) * math.cos(phi)
    assert abs(s[0, 2] - expect) <= 1e-12


def test_golden_tensor_params(tmp_path):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    for out in (out1, out2):
        assert main(["parametrize", "--in", str(GOLDEN / "tensor_matrix.json"),
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN / "tensor_params.json").read_bytes()
    p = _read_params(out1)
    a, b = 0.5, 0.3 + 0.2j
    assert abs(p.gamma[0, 1] - b) <= 1e-12
    assert abs(p.gamma[2, 3] - b) <= 1e-12
    assert abs(p.gamma[1, 2] - a * np.conj(b)) <= 1e-12
    assert abs(p.gamma[0, 3] + a * b) <= 1e-12
    spread = a * math.sqrt(1 - abs(b) ** 2) / math.sqrt(1 - a ** 2 * abs(b) ** 2)
    assert abs(p.gamma[0, 2] - spread) <= 1e-12
    assert abs(p.gamma[1, 3] - spread) <= 1e-12


def test_golden_qubit_nf_params(tmp_path):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    for out in (out1, out2):
        assert main(["parametrize", "--in", str(GOLDEN / "nf_matrix.json"),
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN / "nf_params.json").read_bytes()
    p = _read_params(out1)
    assert p.gamma[1, 2] == 0.25
    assert p.gamma[0, 3] == 0.75


def test_golden_depolarizing_capacity(capsys):
    outputs = []
    for _ in range(2):
        assert main(["channel", "--choi", str(GOLDEN / "depol_choi.json"),
                     "--din", "2", "--dout", "2", "--capacity"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0] == (GOLDEN / "depol_capacity.json").read_text()


def test_golden_random_seed(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["random", "--kind", "psd", "--dim", "3", "--seed", "42",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN / "random_psd_seed42.json").read_bytes()


# Subprocesses import the package from the sources, installed or not.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))


def test_console_entry_subprocess(tmp_path):
    """One end-to-end run through the real interpreter boundary."""
    mfile = tmp_path / "m.json"
    r = subprocess.run(
        [sys.executable, "-m", "schurq.cli", "random", "--kind", "psd",
         "--dim", "2", "--seed", "1", "--out", str(mfile)],
        capture_output=True, text=True, env=SRC_ENV)
    assert r.returncode == 0 and r.stdout == ""
    r = subprocess.run(
        [sys.executable, "-m", "schurq.cli", "parametrize",
         "--in", str(mfile), "--out", str(tmp_path / "p.json")],
        capture_output=True, text=True, env=SRC_ENV)
    assert r.returncode == 0
    assert (tmp_path / "p.json").exists()


DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    """Every demo script runs to completion against the package sources."""
    r = subprocess.run([sys.executable, str(DEMOS / demo)],
                       capture_output=True, text=True, env=SRC_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()


def test_every_all_name_resolves():
    """Every module has an ``__all__``, and ``from <module> import *`` binds
    exactly its names: a deletion cannot leave a stale entry behind, and no
    import (``np``, ``dataclass``) leaks out."""
    modules = [m.name for m in pkgutil.iter_modules(schurq.__path__)]
    assert "states" in modules and "displacement" in modules
    for name in modules:
        listed = importlib.import_module(f"schurq.{name}").__all__
        namespace: dict = {}
        exec(f"from schurq.{name} import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(listed), name
