"""Canonical JSON serialization for matrices and parameter sets.

Two file shapes, both plain JSON objects with a fixed key order:

MatrixFile   {"rows": n, "cols": m, "data": [[re, im], ...]}   row-major
ParamsFile   {"dim": d, "diag": [...],
              "gamma": [{"k": 1, "j": 2, "re": ..., "im": ..., "defined": true}, ...]}

Indices in files are 1-based (k < j), matching the closed-form displays in
the docstrings; arrays in the Python API stay 0-based.  Masked parameters
appear with value 0 and defined = false.  Serialization is canonical so
equal inputs produce byte-identical files: keys in the order shown, indent
two spaces, floats printed by Python repr (shortest round-trip form, so
parse(serialize(x)) is bit-exact), a trailing newline, and no NaN/Infinity
tokens -- non-finite scalars are encoded as the strings "-inf"/"+inf".
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .params import SchurParams

__all__ = [
    "encode_scalar",
    "dumps_canonical",
    "matrix_to_obj",
    "matrix_from_obj",
    "params_to_obj",
    "params_from_obj",
    "load_json",
    "write_text",
]


def encode_scalar(x: float) -> float | str:
    """Finite floats pass through; infinities become JSON strings."""
    if math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    if math.isnan(x):
        raise ValueError("NaN has no canonical encoding")
    return float(x)


def dumps_canonical(obj) -> str:
    """Canonical JSON text: insertion key order, indent 2, trailing newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def _integer(value, what: str) -> int:
    """A JSON integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A JSON number (integer or float); booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} is not numeric: {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} is not finite") from exc


# ---------------------------------------------------------------------------
# MatrixFile


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    data = [[float(z.real), float(z.imag)] for z in m.reshape(m.size)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_obj(obj: dict) -> np.ndarray:
    try:
        rows = _integer(obj["rows"], "rows")
        cols = _integer(obj["cols"], "cols")
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix file: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data) if isinstance(data, list) else '?'}"
                         f" does not match rows*cols = {rows * cols}")
    out = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(data):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise ValueError(f"matrix entry {idx} is not an [re, im] pair")
        re = _real(pair[0], f"matrix entry {idx}")
        im = _real(pair[1], f"matrix entry {idx}")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"matrix entry {idx} is not finite")
        out[idx] = complex(re, im)
    return out.reshape(rows, cols)


# ---------------------------------------------------------------------------
# ParamsFile


def params_to_obj(p: SchurParams) -> dict:
    d = p.dim
    gamma = []
    for k in range(d - 1):
        for j in range(k + 1, d):
            val = p.gamma[k, j]
            gamma.append({
                "k": k + 1,
                "j": j + 1,
                "re": float(val.real),
                "im": float(val.imag),
                "defined": bool(p.defined[k, j]),
            })
    return {"dim": d, "diag": [float(x) for x in p.diag], "gamma": gamma}


def params_from_obj(obj: dict) -> SchurParams:
    """Parse a ParamsFile; its values must pass :meth:`SchurParams.validate`."""
    try:
        d = _integer(obj["dim"], "dim")
        diag = obj["diag"]
        entries = obj["gamma"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed params file: {exc}") from exc
    if d < 1:
        raise ValueError("dim must be positive")
    if not isinstance(diag, list) or len(diag) != d:
        raise ValueError(f"diag must have {d} entries")
    dvec = np.array([_real(x, f"diag entry {i}") for i, x in enumerate(diag)])
    expected = d * (d - 1) // 2
    if not isinstance(entries, list) or len(entries) != expected:
        raise ValueError(f"gamma must list all {expected} upper pairs")
    gamma = np.zeros((d, d), dtype=np.complex128)
    defined = np.zeros((d, d), dtype=bool)
    seen = set()
    for ent in entries:
        try:
            k = _integer(ent["k"], "gamma entry k")
            j = _integer(ent["j"], "gamma entry j")
            val = complex(_real(ent["re"], f"gamma entry ({k}, {j}) re"),
                          _real(ent["im"], f"gamma entry ({k}, {j}) im"))
            flag = ent["defined"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed gamma entry: {exc}") from exc
        if not isinstance(flag, bool):
            raise ValueError(f"gamma entry ({k}, {j}): defined must be true or false")
        if not (1 <= k < j <= d):
            raise ValueError(f"gamma indices ({k}, {j}) out of range (1-based, k < j)")
        if (k, j) in seen:
            raise ValueError(f"duplicate gamma entry ({k}, {j})")
        seen.add((k, j))
        gamma[k - 1, j - 1] = val
        defined[k - 1, j - 1] = flag
    return SchurParams(d, dvec, gamma, defined)
