"""CLI: file formats, exit codes, pipelines, and golden-file stability.

Golden outputs under ``tests/golden`` were produced by the CLI itself:

    schurq reconstruct --in cosine_params.json --out cosine_matrix.json
    schurq parametrize --in tensor_matrix.json --out tensor_params.json
    schurq parametrize --in nf_matrix.json --out nf_params.json
    schurq channel --choi depol_choi.json --din 2 --dout 2 --capacity
    schurq random --kind psd --dim 3 --seed 42 --out random_psd_seed42.json
    schurq reconstruct --in tensor_params.json --out tensor_reconstructed.json \
        --cholesky tensor_cholesky.json

and must regenerate byte-identically.
"""

import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schurq
from schurq.channels import (
    ChoiMatrix,
    is_completely_positive,
    is_trace_preserving,
    kraus_from_choi,
    map_from_choi,
)
from schurq.cli import main
from schurq.fileio import (
    dumps_canonical,
    encode_scalar,
    matrix_from_obj,
    matrix_to_obj,
    params_from_obj,
    params_to_obj,
    write_text,
)
from schurq.linalg import maxnorm
from schurq.params import SchurParams, forward

GOLDEN = Path(__file__).parent / "golden"


def _matrix_text(m):
    return dumps_canonical(matrix_to_obj(np.asarray(m, dtype=complex)))


def _write_matrix(path, m):
    write_text(str(path), _matrix_text(m))


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


def test_writers_refuse_what_has_no_canonical_form():
    with pytest.raises(ValueError, match="NaN has no canonical encoding"):
        encode_scalar(math.nan)
    assert [encode_scalar(x) for x in (-math.inf, math.inf, 0.5)] == ["-inf", "+inf", 0.5]
    with pytest.raises(ValueError, match="two-dimensional"):
        matrix_to_obj(np.ones(3))
    with pytest.raises(ValueError, match="entries must be finite"):
        matrix_to_obj(np.array([[1.0, np.inf]]))


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


def test_parametrize_without_out_writes_stdout(tmp_path, capsys):
    _write_matrix(tmp_path / "m.json", np.diag([4.0, 1.0]))
    assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "p.json")]) == 0
    capsys.readouterr()
    assert main(["parametrize", "--in", str(tmp_path / "m.json")]) == 0
    out = capsys.readouterr()
    assert out.out == (tmp_path / "p.json").read_text() and out.err == ""


def test_out_into_missing_directory_exit1(tmp_path, capsys):
    _write_matrix(tmp_path / "m.json", np.eye(2))
    missing = tmp_path / "no" / "such" / "p.json"
    assert main(["parametrize", "--in", str(tmp_path / "m.json"),
                 "--out", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1


def test_malformed_matrix_files_exit1(tmp_path, capsys):
    """A malformed matrix file is a file error: one line on stderr naming
    the file and the problem, exit 1."""
    for text, reason in (
            ('{"rows": 1, "cols": 1, "data": [[1.0, 0.0]', "Expecting"),
            ('[[1.0, 0.0]]', "expected a JSON object"),
            ('{"rows": 1, "data": [[1.0, 0.0]]}', "malformed matrix file"),
            ('{"rows": -1, "cols": 1, "data": []}', "dimensions must be nonnegative"),
            ('{"rows": 1, "cols": 2, "data": [[1.0, 0.0]]}',
             "data length 1 does not match rows\\*cols = 2"),
            ('{"rows": 1, "cols": 1, "data": {}}', "data length \\?"),
            ('{"rows": 1, "cols": 1, "data": [[1.0]]}', "entry 0 is not an \\[re, im\\] pair"),
            ('{"rows": 1, "cols": 1, "data": [1.0]}', "entry 0 is not an \\[re, im\\] pair"),
            ('{"rows": 1, "cols": 1, "data": [[1e999, 0.0]]}', "entry 0 is not finite"),
            ('{"rows": 1, "cols": 1, "data": [[1.0, NaN]]}', "entry 0 is not finite"),
            ('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400), "entry 0 is not finite")):
        (tmp_path / "m.json").write_text(text)
        assert main(["parametrize", "--in", str(tmp_path / "m.json")]) == 1, text
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, text
        assert str(tmp_path / "m.json") in out.err and re.search(reason, out.err), out.err


def test_malformed_params_files_exit1(tmp_path, capsys):
    entry = {"k": 1, "j": 2, "re": 0.0, "im": 0.0, "defined": True}
    for obj, reason in (
            ({"dim": 2, "diag": [1.0, 1.0]}, "malformed params file"),
            ({"dim": 0, "diag": [], "gamma": []}, "dim must be positive"),
            ({"dim": 2, "diag": [1.0], "gamma": [entry]}, "diag must have 2 entries"),
            ({"dim": 2, "diag": [1.0, 1.0], "gamma": {}}, "gamma must list all 1 upper pairs"),
            ({"dim": 2, "diag": [1.0, 1.0], "gamma": [{"k": 1, "j": 2}]},
             "malformed gamma entry"),
            ({"dim": 2, "diag": [1.0, 1.0], "gamma": [[1, 2]]}, "malformed gamma entry"),
            ({"dim": 2, "diag": [1.0, 1.0], "gamma": [dict(entry, j=3)]},
             r"gamma indices \(1, 3\) out of range")):
        write_text(str(tmp_path / "p.json"), json.dumps(obj))
        assert main(["reconstruct", "--in", str(tmp_path / "p.json")]) == 1, obj
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, obj
        assert str(tmp_path / "p.json") in out.err and re.search(reason, out.err), out.err


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


def test_usage_errors_exit1_with_one_line(capsys):
    """A usage error the parser finds is a usage error like any other: exit
    1 and one stderr line, not argparse's exit 2 and usage text."""
    for argv, line in (
            (["random", "--kind", "psd", "--dim", "x", "--seed", "1"],
             "argument --dim: invalid int value: 'x'"),
            (["random", "--kind", "psd", "--dim", "2", "--seed", "1", "--bogus"],
             "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command")):
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {line}\n", argv
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: schurq")


@pytest.mark.parametrize("command", [["state"], ["parametrize"], ["separability"]])
def test_file_errors_name_the_path_once(tmp_path, capsys, command):
    """A file that is not a JSON object or cannot be read: exit 1 and one
    stderr line that names the file once."""
    (tmp_path / "arr.json").write_text("[1]")
    for name, reason in (("arr.json", "expected a JSON object"),
                         ("missing.json", "No such file or directory")):
        path = str(tmp_path / name)
        assert main([*command, "--in", path]) == 1, name
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and reason in out.err, out.err
        assert out.err.count("\n") == 1 and out.err.count(path) == 1, out.err


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
    """Trace 4, a non-Hermitian and a non-square matrix are not states; a
    unit-trace indefinite matrix is not PSD.  Each exits 2 from ``state``
    and ``separability``, with one line on stderr and nothing on stdout."""
    for command in (["state", "--report"], ["separability", "--dims", "2x2"]):
        for m, reason in ((np.eye(4), "not a state: "),
                          (np.array([[0.5, 0.2], [0.0, 0.5]]),
                           "not a state: matrix is not Hermitian within tolerance\n"),
                          (np.ones((2, 3)) / 3,
                           "not a state: expected a square matrix, got shape (2, 3)\n"),
                          (np.diag([0.75, 0.5, -0.5, 0.25]), "not positive semidefinite: ")):
            _write_matrix(tmp_path / "m.json", m)
            assert main([*command, "--in", str(tmp_path / "m.json")]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith(reason), (command, out.err)
            assert out.err.count("\n") == 1


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


def test_channel_extracts_once(tmp_path, capsys, monkeypatch, extraction_runs):
    """Kraus files and capacity come from one extraction of the Choi matrix,
    and the factor is read off its lattice: no second pass over the bands."""
    import schurq.cli as cli
    import schurq.params as params

    calls = {"cholesky_factor": 0}

    def counted(module, name):
        wrapped = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(params, "cholesky_factor")
    counted(cli, "cholesky_factor")
    assert main(["channel", "--choi", str(GOLDEN / "depol_choi.json"),
                 "--din", "2", "--dout", "2",
                 "--kraus", str(tmp_path / "k"), "--capacity"]) == 0
    assert len(extraction_runs) == 1
    assert calls == {"cholesky_factor": 0}
    assert capsys.readouterr().out == (GOLDEN / "depol_capacity.json").read_text()
    ks = kraus_from_choi(ChoiMatrix(2, 2, _read_matrix(GOLDEN / "depol_choi.json")))
    files = sorted(tmp_path.glob("k_*.json"))
    assert len(files) == len(ks.generators)
    for path, gen in zip(files, ks.generators):
        assert path.read_bytes() == dumps_canonical(matrix_to_obj(gen)).encode()


def test_reconstruct_cholesky_synthesizes_once(tmp_path, synthesis_runs):
    """``reconstruct --cholesky`` reads the matrix and its factor off one
    synthesis, and both files keep their golden bytes."""
    out, chol = tmp_path / "m.json", tmp_path / "c.json"
    assert main(["reconstruct", "--in", str(GOLDEN / "tensor_params.json"),
                 "--out", str(out), "--cholesky", str(chol)]) == 0
    assert len(synthesis_runs) == 1
    assert out.read_bytes() == (GOLDEN / "tensor_reconstructed.json").read_bytes()
    assert chol.read_bytes() == (GOLDEN / "tensor_cholesky.json").read_bytes()


def test_channel_transpose_exit2(tmp_path, capsys):
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0] = choi[3, 3] = 1.0
    choi[1, 2] = choi[2, 1] = 1.0
    _write_matrix(tmp_path / "c.json", choi)
    assert main(["channel", "--choi", str(tmp_path / "c.json"),
                 "--din", "2", "--dout", "2"]) == 2
    capsys.readouterr()


def test_channel_non_hermitian_exit1(tmp_path, capsys):
    """A non-Hermitian Choi file is a file error naming the file: exit 1."""
    path = tmp_path / "c.json"
    _write_matrix(path, np.diag([0.5, 0.5, 0.0, 0.0]) + 0.2 * np.eye(4, k=1))
    assert main(["channel", "--choi", str(path), "--din", "2", "--dout", "2",
                 "--capacity"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: matrix is not Hermitian within tolerance\n"


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
    """A state the test cannot take is a usage error: exit 1, one line on
    stderr, nothing on stdout."""
    _write_matrix(tmp_path / "w.json", _werner(0.5))
    _write_matrix(tmp_path / "m9.json", np.eye(9) / 9)
    _write_matrix(tmp_path / "m6.json", np.eye(6) / 6)
    for name, flags, line in (
            # params method is qubit-pair only
            ("w.json", ["--dims", "2x3", "--method", "params"],
             "--method params supports --dims 2x2 only"),
            ("m6.json", ["--method", "params"],
             "parameter separability test requires a 2x2 system"),
            # dims that do not match the matrix size
            ("m9.json", ["--dims", "2x2"], "dims (2, 2) incompatible with dimension 9"),
            ("m6.json", [], "dims (2, 2) incompatible with dimension 6")):
        assert main(["separability", "--in", str(tmp_path / name), *flags]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {line}\n", (name, flags)


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


@pytest.mark.parametrize("kind", ["psd", "state"])
def test_random_dim_one_exit1(tmp_path, capsys, kind):
    out = tmp_path / "x.json"
    assert main(["random", "--kind", kind, "--dim", "1", "--seed", "1",
                 "--out", str(out)]) == 1
    assert "--dim too small" in capsys.readouterr().err and not out.exists()


def test_random_channel_without_tp_is_a_cp_choi_matrix(tmp_path):
    """Without ``--tp`` the Choi matrix is X*X at trace d_in: Hermitian,
    completely positive, and in general not trace preserving."""
    f = tmp_path / "c.json"
    assert main(["random", "--kind", "channel", "--dim", "2", "--seed", "6",
                 "--out", str(f)]) == 0
    s = _read_matrix(f)
    assert maxnorm(s - s.conj().T) <= 1e-15
    assert abs(np.trace(s) - 2.0) <= 1e-14
    choi = ChoiMatrix(2, 2, s)
    assert is_completely_positive(choi)
    assert not is_trace_preserving(map_from_choi(choi))


# ---------------------------------------------------------------------------
# The failure matrix: every form on every bad input, with README's exit codes


def _params_text(diag, re=0.0, defined=True):
    entry = {"k": 1, "j": 2, "re": re, "im": 0.0, "defined": defined}
    return json.dumps({"dim": 2, "diag": diag, "gamma": [entry]})


# File name -> contents: the bad inputs, and a good state and parameter file
# for the flag cases; "missing.json" is never written.
_FILES = {
    "invalid.json": '{"rows": 1, "cols": 1',
    "array.json": "[1]",
    "malformed.json": '{"rows": 2, "data": []}',
    "non_numeric.json": '{"rows": 1, "cols": 1, "data": [["1", 0]]}',
    "non_hermitian.json": _matrix_text(np.eye(4) / 4 + 0.2 * np.eye(4, k=1)),
    "non_square.json": _matrix_text(np.ones((2, 3)) / 3),
    "indefinite.json": _matrix_text(np.eye(4) / 4 + 0.5 * np.eye(4, k=1) + 0.5 * np.eye(4, k=-1)),
    "params_malformed.json": json.dumps({"dim": 2, "diag": [1.0, 1.0]}),
    "params_non_numeric.json": json.dumps({"dim": 2, "diag": ["1.0", 1.0], "gamma": []}),
    "params_outside_disc.json": _params_text([1.0, 1.0], re=1.5),
    "params_masked_nonzero.json": _params_text([1.0, 1.0], re=0.5, defined=False),
    "params_negative_diag.json": _params_text([-1.0, 1.0]),
    "state.json": _matrix_text(_werner(0.5)),
    "params.json": _params_text([1.0, 1.0]),
}

_FILE_ERRORS = ("missing.json", "invalid.json", "array.json", "malformed.json",
                "non_numeric.json")
_ERROR, _NOT_PSD, _NOT_A_STATE = "error: ", "not positive semidefinite: ", "not a state: "
_MATRIX_FORMS = {  # form -> (argv before the file, line for a matrix that is no state)
    "parametrize": (["parametrize", "--in"], _ERROR),
    "parametrize displacement": (["parametrize", "--method", "displacement", "--in"], _ERROR),
    "state": (["state", "--report", "--in"], _NOT_A_STATE),
    "channel": (["channel", "--din", "2", "--dout", "2", "--choi"], _ERROR),
    "separability": (["separability", "--in"], _NOT_A_STATE),
    "separability params": (["separability", "--method", "params", "--in"], _NOT_A_STATE),
}
# (id, argv, line prefix, whether the line is about the last argument's file)
_CELLS = [
    *[(f"{form}: {name}", [*argv, name], _ERROR, True)
      for form, (argv, _) in _MATRIX_FORMS.items() for name in _FILE_ERRORS],
    *[(f"{form}: {name}", [*argv, name], line, line == _ERROR)
      for form, (argv, line) in _MATRIX_FORMS.items()
      for name in ("non_hermitian.json", "non_square.json")],
    *[(f"{form}: indefinite.json", [*argv, "indefinite.json"], _NOT_PSD, False)
      for form, (argv, _) in _MATRIX_FORMS.items()],
    *[(f"reconstruct: {name}", ["reconstruct", "--in", name], _ERROR, True)
      for name in (*_FILE_ERRORS[:3], "params_malformed.json", "params_non_numeric.json",
                   "params_outside_disc.json", "params_masked_nonzero.json",
                   "params_negative_diag.json")],
    # flag cases on good input
    ("parametrize --method bogus",
     ["parametrize", "--method", "bogus", "--in", "state.json"], _ERROR, False),
    ("parametrize without --in", ["parametrize"], _ERROR, False),
    ("parametrize --out in a missing directory",
     ["parametrize", "--in", "state.json", "--out", "no/p.json"], _ERROR, True),
    ("reconstruct --cholesky in a missing directory",
     ["reconstruct", "--in", "params.json", "--out", "r.json", "--cholesky", "no/u.json"],
     _ERROR, True),
    ("state --bogus", ["state", "--bogus", "--in", "state.json"], _ERROR, False),
    ("channel --din 0",
     ["channel", "--din", "0", "--dout", "2", "--choi", "state.json"], _ERROR, False),
    ("channel --dout 3",
     ["channel", "--din", "2", "--dout", "3", "--choi", "state.json"], _ERROR, True),
    ("separability --dims 2x3",
     ["separability", "--dims", "2x3", "--in", "state.json"], _ERROR, False),
    ("separability --method params --dims 2x3",
     ["separability", "--method", "params", "--dims", "2x3", "--in", "state.json"],
     _ERROR, False),
    ("random --dim 1", ["random", "--kind", "psd", "--dim", "1", "--seed", "1"], _ERROR, False),
    ("random --tp on psd",
     ["random", "--kind", "psd", "--dim", "2", "--seed", "1", "--tp"], _ERROR, False),
    ("random --dim x", ["random", "--kind", "psd", "--dim", "x", "--seed", "1"], _ERROR, False),
    ("no command", [], _ERROR, False),
]


@pytest.mark.parametrize("argv, prefix, names_file",
                         [pytest.param(*cell[1:], id=cell[0]) for cell in _CELLS])
def test_failure_matrix(tmp_path, capsys, monkeypatch, argv, prefix, names_file):
    """Each failing form exits as README "Command line" states (1 with an
    'error: ' line, 2 with 'not positive semidefinite: ' or 'not a state:
    '), prints nothing on stdout and one line on stderr, and names a file at
    most once: the file of its last argument exactly once where the line is
    about that file."""
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == (1 if prefix == _ERROR else 2)
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(prefix) and out.err.count("\n") == 1, out.err
    for name in {*_FILES, "missing.json"}:
        assert out.err.count(name) <= 1, out.err
    if names_file:
        assert out.err.count(argv[-1]) == 1, out.err


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


# OpenBLAS kernels to force in a child process, each with the CPU flag it
# needs: a kernel the CPU cannot run would fault, not round differently.
BLAS_KERNELS = {"Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}

# Every golden pipeline of the module docstring, input and output names
# relative to ``tests/golden``; the capacity pipeline writes to stdout.
GOLDEN_PIPELINES = (
    ["reconstruct", "--in", "cosine_params.json", "--out", "cosine_matrix.json"],
    ["parametrize", "--in", "tensor_matrix.json", "--out", "tensor_params.json"],
    ["parametrize", "--in", "nf_matrix.json", "--out", "nf_params.json"],
    ["random", "--kind", "psd", "--dim", "3", "--seed", "42",
     "--out", "random_psd_seed42.json"],
    ["reconstruct", "--in", "tensor_params.json", "--out", "tensor_reconstructed.json",
     "--cholesky", "tensor_cholesky.json"],
    ["channel", "--choi", "depol_choi.json", "--din", "2", "--dout", "2", "--capacity"],
)


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_golden_pipelines_under_another_blas_kernel(tmp_path, kernel):
    """The golden bytes are the library's, not one BLAS kernel's: a child
    process with ``OPENBLAS_CORETYPE`` set in its own environment regenerates
    every golden file byte for byte (ignored where numpy has no OpenBLAS)."""
    if BLAS_KERNELS[kernel] not in _cpu_flags():
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    argvs = [[str(GOLDEN / a) if flag in ("--in", "--choi") else
              str(tmp_path / a) if flag in ("--out", "--cholesky") else a
              for flag, a in zip([None, *argv], argv)] for argv in GOLDEN_PIPELINES]
    child = ("import json, sys\nfrom schurq.cli import main\n"
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    r = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)],
                       capture_output=True, text=True,
                       env=dict(SRC_ENV, OPENBLAS_CORETYPE=kernel))
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "depol_capacity.json").read_text()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 6
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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
    # The exit code of a failure reaches the shell: 1 for a file error,
    # 2 for a mathematical rejection.
    _write_matrix(tmp_path / "indef.json", np.diag([1.0, -1.0]))
    for name, code, prefix in (("missing.json", 1, "error: "),
                               ("indef.json", 2, "not positive semidefinite: ")):
        r = subprocess.run(
            [sys.executable, "-m", "schurq.cli", "parametrize",
             "--in", str(tmp_path / name)],
            capture_output=True, text=True, env=SRC_ENV)
        assert r.returncode == code and r.stdout == "", (name, r.stderr)
        assert r.stderr.startswith(prefix) and r.stderr.count("\n") == 1, r.stderr
    # A usage error found by the parser exits 1 too, with one line.
    r = subprocess.run(
        [sys.executable, "-m", "schurq.cli", "random", "--kind", "psd", "--dim", "x",
         "--seed", "1"], capture_output=True, text=True, env=SRC_ENV)
    assert (r.returncode, r.stdout, r.stderr) == (
        1, "", "error: argument --dim: invalid int value: 'x'\n")


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
