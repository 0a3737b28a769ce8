"""Command-line surface: JSON matrix files in, JSON reports and files out.

Subcommands map one-to-one onto the library layers: ``parametrize`` /
``reconstruct`` expose the coordinate transform in both directions,
``state`` reports purity and the two entropies, ``channel`` handles
complete positivity, Kraus files and capacity, ``separability`` runs the
partial-transpose and parameter-search tests, and ``random`` emits seeded
reproducible instances.

Exit codes: 0 success, 1 usage or file problem, 2 mathematical rejection
(not PSD / not a state / not completely positive), with a human-readable
diagnostic on stderr naming the first failing band and offending value.
stdout carries machine-readable JSON only.  Subcommands only label a
failure; :func:`main` alone maps it to its exit code and stderr line.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from .channels import ChoiMatrix, capacity_D, kraus_from_choi
from .displacement import displacement_inverse
from .fileio import (
    dumps_canonical,
    encode_scalar,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    params_from_obj,
    params_to_obj,
    write_text,
)
from .linalg import NotPSDError
from .params import cholesky_factor, forward, inverse
from .rng import random_choi, random_psd, random_state
from .states import (
    entropy_E,
    entropy_E0,
    is_pure,
    is_separable_params,
    is_separable_ppt,
    pure_vector,
    state_from_matrix,
)

__all__ = ["main"]


class _NotAState(Exception):
    """A ``ValueError`` raised while building the input's DensityState."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach :func:`main` as a
    ``ValueError``, which exits 1 with one stderr line."""

    def error(self, message):
        raise ValueError(message)


@contextmanager
def _label(path: str | None = None):
    """Label a ``ValueError`` raised in the block for :func:`main`: with
    ``path`` in front, or, without a path, as :class:`_NotAState`.
    ``NotPSDError`` and ``OSError``, which names its own file, pass
    unlabelled."""
    try:
        yield
    except (NotPSDError, OSError):
        raise
    except ValueError as exc:
        if path is None:
            raise _NotAState(exc) from exc
        raise ValueError(f"{path}: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    with _label(path):
        return matrix_from_obj(load_json(path))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(path, text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parametrize(args) -> int:
    with _label(args.infile):
        m = matrix_from_obj(load_json(args.infile))
        if args.method == "displacement":
            params = displacement_inverse(m)
        else:
            params = inverse(m)
    _emit(dumps_canonical(params_to_obj(params)), args.outfile)
    return 0


def cmd_reconstruct(args) -> int:
    with _label(args.infile):
        params = params_from_obj(load_json(args.infile))
        s = forward(params)
    if args.cholesky is not None:
        u = cholesky_factor(params) * params.diag[None, :]
        write_text(args.cholesky, dumps_canonical(matrix_to_obj(u)))
    _emit(dumps_canonical(matrix_to_obj(s)), args.outfile)
    return 0


def cmd_state(args) -> int:
    m = _load_matrix(args.infile)
    with _label():
        state = state_from_matrix(m)
    pure = is_pure(state)
    report = {
        "dim": state.dim,
        "pure": bool(pure),
        "entropy_E": encode_scalar(entropy_E(state)),
        "entropy_E0": encode_scalar(entropy_E0(state)),
        "params": params_to_obj(state.params),
    }
    if pure:
        v = pure_vector(state)
        report["pure_vector"] = [[float(z.real), float(z.imag)] for z in v]
    if args.report:
        sys.stdout.write(dumps_canonical(report))
    return 0


def cmd_channel(args) -> int:
    for flag, value in (("--din", args.din), ("--dout", args.dout)):
        if value < 1:
            raise ValueError(f"{flag} must be positive, got {value}")
    n = args.din * args.dout
    with _label(args.choi):
        m = matrix_from_obj(load_json(args.choi))
        if m.shape != (n, n):
            raise ValueError(f"shape {m.shape} does not match --din {args.din} "
                             f"--dout {args.dout}")
        c = ChoiMatrix(args.din, args.dout, m)
        ks = kraus_from_choi(c)
    if args.kraus is not None:
        for idx, gen in enumerate(ks.generators, start=1):
            write_text(f"{args.kraus}_{idx}.json",
                       dumps_canonical(matrix_to_obj(gen)))
    if args.capacity:
        out = {"capacity": encode_scalar(capacity_D(c))}
        sys.stdout.write(dumps_canonical(out))
    return 0


def cmd_separability(args) -> int:
    m = _load_matrix(args.infile)
    dims = tuple(int(x) for x in args.dims.split("x"))
    if args.method == "params" and dims != (2, 2):
        raise ValueError("--method params supports --dims 2x2 only")
    with _label():
        state = state_from_matrix(m)
    if args.method == "params":
        verdict = is_separable_params(state)
    else:
        verdict = is_separable_ppt(state, dims=dims)
    witness = verdict.witness
    if isinstance(witness, float):
        witness = encode_scalar(witness)
    out = {
        "separable": bool(verdict.separable),
        "method": verdict.method,
        "witness": witness,
    }
    sys.stdout.write(dumps_canonical(out))
    return 0


def cmd_random(args) -> int:
    if args.tp and args.kind != "channel":
        raise ValueError("--tp applies to --kind channel only")
    if args.dim < (2 if args.kind != "channel" else 1):
        raise ValueError("--dim too small")
    if args.kind == "psd":
        m = random_psd(args.seed, args.dim)
    elif args.kind == "state":
        m = random_state(args.seed, args.dim)
    else:
        m = random_choi(args.seed, args.dim, args.dim, tp=args.tp)
    _emit(dumps_canonical(matrix_to_obj(m)), args.outfile)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurq",
        description="Schur-parameter coordinates for PSD matrices, "
                    "states and channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parametrize", help="extract parameters of a PSD matrix")
    p.add_argument("--in", dest="infile", required=True, metavar="MATRIX.json")
    p.add_argument("--out", dest="outfile", metavar="PARAMS.json")
    p.add_argument("--method", choices=["direct", "displacement"],
                   default="direct")
    p.set_defaults(func=cmd_parametrize)

    p = sub.add_parser("reconstruct", help="rebuild the matrix from parameters")
    p.add_argument("--in", dest="infile", required=True, metavar="PARAMS.json")
    p.add_argument("--out", dest="outfile", metavar="MATRIX.json")
    p.add_argument("--cholesky", metavar="FACTOR.json",
                   help="also write the scaled upper factor U with U*U = S")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("state", help="purity and entropy report for a density matrix")
    p.add_argument("--in", dest="infile", required=True, metavar="MATRIX.json")
    p.add_argument("--report", action="store_true",
                   help="print the JSON report to stdout")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("channel", help="complete positivity, Kraus files, capacity")
    p.add_argument("--choi", required=True, metavar="MATRIX.json")
    p.add_argument("--din", type=int, required=True)
    p.add_argument("--dout", type=int, required=True)
    p.add_argument("--kraus", metavar="PREFIX",
                   help="write generators to PREFIX_1.json, PREFIX_2.json, ...")
    p.add_argument("--capacity", action="store_true",
                   help="print the log-det capacity as JSON")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("separability", help="separability test for a bipartite state")
    p.add_argument("--in", dest="infile", required=True, metavar="MATRIX.json")
    p.add_argument("--dims", choices=["2x2", "2x3"], default="2x2")
    p.add_argument("--method", choices=["ppt", "params"], default="ppt")
    p.set_defaults(func=cmd_separability)

    p = sub.add_parser("random", help="seeded reproducible random instance")
    p.add_argument("--kind", choices=["psd", "state", "channel"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", dest="outfile", metavar="MATRIX.json")
    p.add_argument("--tp", action="store_true",
                   help="project a random channel onto trace preservation")
    p.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; map its failure to an exit code and one stderr
    line: not PSD or not a state exit 2, any other ``OSError`` or
    ``ValueError`` (file, flag or usage problem) exits 1."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except NotPSDError as exc:
        code, line = 2, f"not positive semidefinite: {exc}"
    except _NotAState as exc:
        code, line = 2, f"not a state: {exc}"
    except (OSError, ValueError) as exc:
        code, line = 1, f"error: {exc}"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
