"""Workload corpora, the library calls each item makes, and their oracles.

An item is one unit of closed-loop work: ``run()`` makes the timed calls
into schurq and returns what the caller would consume; ``check(value,
error)`` compares that against an independent oracle (numpy eigenvalues,
an LU determinant, a partial transpose built here, or canonical bytes
computed in-process) and runs outside the timed span.

The library is reached through module attributes (``P.inverse``), never
names bound at import, so the tracer's wrappers see every call.

Verdicts of ``check``:

* ``OK``      -- the result agrees with the oracle;
* ``REFUSED`` -- the call raised, or rejected an input the oracle accepts
  (a false rejection); counts as a failed item;
* ``WRONG``   -- the call returned a result the oracle contradicts (a false
  acceptance, a wrong number, different bytes); counts as a failed item
  and makes the run incorrect.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from schurq import channels as C
from schurq import displacement as D
from schurq import fileio as F
from schurq import params as P
from schurq import rng as R
from schurq import states as S
from schurq.linalg import DEFAULT_TOL, NotPSDError

OK, REFUSED, WRONG = "ok", "refused", "wrong"


@dataclass
class Item:
    kind: str
    size: int
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], str]
    # Matrix whose extraction is the item's largest; used for tracemalloc.
    extracts: np.ndarray | None = None
    # Finer grouping than ``kind`` for the latency breakdown in the report.
    label: str = ""


# ---------------------------------------------------------------------------
# Oracles (numpy only; nothing here goes through schurq's extraction)


def _maxnorm(m) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def oracle_psd(s: np.ndarray) -> bool:
    """Eigenvalue verdict at the library's documented entry tolerance."""
    lam = np.linalg.eigvalsh(s)
    return bool(lam[0] >= -DEFAULT_TOL.entry(_maxnorm(s)))


# A state eigenvalue at or below this is rounding residue of an exact zero:
# the corpus builds genuine eigenvalues of order 1/d, far above it.
_NULL_EIG = 1e-10


def _mean_log_eig(s: np.ndarray) -> float | None:
    """(1/n) log det from eigenvalues, or None when s is numerically singular."""
    lam = np.linalg.eigvalsh(s)
    if lam[0] <= _NULL_EIG * max(1.0, lam[-1]):
        return None
    return float(np.mean(np.log(lam)))


def _close(a: float, b: float, tol: float = 1e-8) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def _partial_transpose(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _choi_from_kraus(gens, d_in: int, d_out: int) -> np.ndarray:
    """Choi block (l, m) = sum_n K_n E_lm K_n*, rebuilt from the generators."""
    n = d_in * d_out
    s = np.zeros((n, n), dtype=np.complex128)
    for k in gens:
        b = k.T.reshape(n)
        s += np.outer(b, b.conj())
    return s


# ---------------------------------------------------------------------------
# Input generators (numpy, seeded by the caller's Generator)


def _gauss(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def psd(rng, d: int, rank: int) -> np.ndarray:
    """X*X with X of shape (rank, d), trace normalized to d."""
    x = _gauss(rng, (rank, d))
    s = x.conj().T @ x
    s = 0.5 * (s + s.conj().T)
    return s * (d / float(np.trace(s).real))


def not_psd(s: np.ndarray) -> np.ndarray:
    """Shift below the least eigenvalue by 5% of the largest: a clear
    negative margin, so eigen oracle and extraction have one right answer."""
    lam = np.linalg.eigvalsh(s)
    return s - (lam[0] + 0.05 * lam[-1]) * np.eye(s.shape[0])


def corner_not_psd(s: np.ndarray) -> np.ndarray:
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


def hilbert(d: int) -> np.ndarray:
    i = np.arange(d)
    return (1.0 / (i[:, None] + i[None, :] + 1)).astype(np.complex128)


def graded(rng, d: int, k: int) -> np.ndarray:
    """diag(10^-k t) A diag(10^-k t), t from 0 to 1: entries spanning 2k decades."""
    g = 10.0 ** (-k * np.arange(d) / (d - 1))
    return g[:, None] * psd(rng, d, 2 * d) * g[None, :]


def tp_choi(rng, d: int) -> np.ndarray:
    """Random Choi matrix made trace preserving by congruence with B^-1/2 (x) I."""
    n = d * d
    s = psd(rng, n, n)
    b = np.einsum("krjr->kj", s.reshape(d, d, d, d))
    w, v = np.linalg.eigh(0.5 * (b + b.conj().T))
    c = np.kron(v @ np.diag(w ** -0.5) @ v.conj().T, np.eye(d))
    out = c @ s @ c.conj().T
    return 0.5 * (out + out.conj().T)


def werner(p: float) -> np.ndarray:
    bell = np.zeros((4, 4), dtype=np.complex128)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    return p * bell + (1.0 - p) * np.eye(4) / 4.0


# ---------------------------------------------------------------------------
# small-batch


def _state_item(rho: np.ndarray) -> Item:
    d = rho.shape[0]

    def run():
        st = S.state_from_matrix(rho)
        e = S.entropy_E(st)
        pure = S.is_pure(st)
        v = S.pure_vector(st) if pure else None
        return e, pure, v

    lam = np.linalg.eigvalsh(rho)
    expect_pure = bool(np.sum(lam > _NULL_EIG) == 1)
    expect_e = _mean_log_eig(rho)

    def check(value, error):
        if error is not None:
            return REFUSED
        e, pure, v = value
        if pure != expect_pure:
            return WRONG
        if expect_e is None:
            # Numerically singular: the eigenvalue log-det is rounding residue,
            # so the entropy may only be -inf or below that residue level.
            if not (e == -math.inf or d * e <= math.log(10 * _NULL_EIG)):
                return WRONG
        elif not _close(e, expect_e):
            return WRONG
        if expect_pure:
            if e != -math.inf or _maxnorm(np.outer(v, v.conj()) - rho) > 1e-9:
                return WRONG
        return OK

    return Item("state", d, run, check, extracts=d * rho)


def _channel_item(s: np.ndarray, d: int, partner: np.ndarray | None) -> Item:
    c = C.ChoiMatrix(d, d, s)
    c2 = C.ChoiMatrix(2, 2, partner) if partner is not None else None

    def run():
        ks = C.kraus_from_choi(c)
        cap = C.capacity_D(c)
        if c2 is None:
            return ks, cap, None
        total = C.capacity_D(C.choi_tensor(c, c2))
        return ks, cap, (total, C.capacity_D(c2))

    expect_cap = -_mean_log_eig(s)
    expect_cap2 = -_mean_log_eig(partner) if partner is not None else None
    scale = 1.0 + _maxnorm(s)

    def check(value, error):
        if error is not None:
            return REFUSED
        ks, cap, tensored = value
        if _maxnorm(_choi_from_kraus(ks.generators, d, d) - s) > 1e-9 * scale:
            return WRONG
        tp = sum(k.conj().T @ k for k in ks.generators)
        if _maxnorm(tp - np.eye(d)) > 1e-9:
            return WRONG
        if not _close(cap, expect_cap):
            return WRONG
        if tensored is not None:
            total, cap2 = tensored
            if not _close(cap2, expect_cap2) or not _close(total, cap + cap2):
                return WRONG
        return OK

    big = np.kron(s, partner) if partner is not None else s
    return Item("channel", d * d if partner is None else 16, run, check,
                extracts=big)


def _sep_item(rho: np.ndarray) -> Item:
    def run():
        return S.is_separable_params(S.state_from_matrix(rho)).separable

    expect = oracle_psd(_partial_transpose(rho))

    def check(value, error):
        if error is not None:
            return REFUSED
        return OK if value == expect else WRONG

    return Item("sep", 4, run, check, extracts=4 * rho)


def _screen_item(s: np.ndarray) -> Item:
    def run():
        return P.is_psd_via_params(s)

    expect = oracle_psd(s)

    def check(value, error):
        if error is not None:
            return REFUSED
        if value == expect:
            return OK
        # Rejecting a PSD input refuses a valid call; accepting a non-PSD one
        # is a wrong answer.
        return REFUSED if expect else WRONG

    return Item("screen", s.shape[0], run, check, extracts=s)


# Werner weights a clear distance from the separability flip at p = 1/3.
_WERNER_P = (-0.3, -0.1, 0.05, 0.2, 0.45, 0.6, 0.8, 0.95)


# Independent draws of the small-batch mix in one pass.  The cost of a
# random not-PSD screen or two-qubit state depends on its values, so with one
# draw the items near the median change from seed to seed and p50 moves with
# them; three draws fill in the distribution.
SMALL_BATCH_DRAWS = 3


def small_batch(rng, tiny: bool = False) -> list[Item]:
    """``SMALL_BATCH_DRAWS`` draws of the mix below (one when ``tiny``)."""
    return [item for _ in range(1 if tiny else SMALL_BATCH_DRAWS)
            for item in _small_batch_draw(rng, tiny)]


def _small_batch_draw(rng, tiny: bool) -> list[Item]:
    """Mix of the acceptance suite and the demos, all d <= 16.

    Per draw: states (d 2..9: two full-rank, one pure, one rank d//2 per d),
    TP channels (d_in = d_out alternating 2, 3; every fourth item, always a
    qubit channel, is also tensored with a second qubit channel), Werner and
    random two-qubit states through the parameter separability test, and a
    PSD screen on d 4..14 whose hard slice is Hilbert d 6..14 and graded
    congruences.  Hilbert d 12..14 were false rejections when this benchmark
    was written; they stay in the corpus.
    """
    state_dims = (2, 3) if tiny else range(2, 10)
    n_channel = 4 if tiny else 16
    n_sep = 1 if tiny else 8
    screen_dims = (4, 5) if tiny else range(4, 15)
    hilbert_dims = (6,) if tiny else range(6, 15)
    graded_cases = ((6, 3),) if tiny else ((6, 3), (10, 3), (14, 3),
                                          (6, 6), (10, 6), (14, 6))

    states, chans, seps, screens = [], [], [], []
    for d in state_dims:
        for rank in (2 * d, 2 * d, 1, max(1, d // 2)):
            states.append(_state_item(psd(rng, d, rank) / d))
    for i in range(n_channel):
        d = 2 if i % 2 == 0 else 3
        partner = tp_choi(rng, 2) if i % 4 == 0 else None
        chans.append(_channel_item(tp_choi(rng, d), d, partner))
    for p in _WERNER_P[:: 8 // n_sep]:
        seps.append(_sep_item(werner(p)))
    for _ in range(n_sep):
        seps.append(_sep_item(psd(rng, 4, 4) / 4))
    for d in screen_dims:
        s = psd(rng, d, 2 * d)
        screens += [_screen_item(s), _screen_item(not_psd(s)),
                    _screen_item(not_psd(psd(rng, d, d)))]
    for d in hilbert_dims:
        screens.append(_screen_item(hilbert(d)))
    for d, k in graded_cases:
        g = graded(rng, d, k)
        screens += [_screen_item(g), _screen_item(not_psd(g))]
    # Interleave kinds so a pass is a mix, not four phases.
    groups = [states, chans, seps, screens]
    out: list[Item] = []
    while any(groups):
        for g in groups:
            if g:
                out.append(g.pop(0))
    return out


# ---------------------------------------------------------------------------
# large-dim


def _large_item(s: np.ndarray, form: str) -> Item:
    d = s.shape[0]

    def run():
        p = P.inverse(s)
        back = P.forward(p)
        g = P.cholesky_factor(p)
        return p, back, g, P.det_from_params(p)

    expect_psd = oracle_psd(s)
    scale = 1.0 + _maxnorm(s)
    diag_prod = float(np.prod(s.diagonal().real)) if expect_psd else 1.0
    lu = float(np.linalg.det(s).real) / diag_prod if expect_psd else 0.0

    def check(value, error):
        if error is not None:
            if isinstance(error, NotPSDError) and not expect_psd:
                return OK
            return REFUSED
        if not expect_psd:
            return WRONG
        p, back, g, det = value
        if _maxnorm(back - s) > 1e-9 * scale:
            return WRONG
        u = g * p.diag[None, :]
        if _maxnorm(np.tril(g, -1)) != 0.0 \
                or _maxnorm(u.conj().T @ u - s) > 1e-9 * scale:
            return WRONG
        if abs(det / diag_prod - lu) > 1e-9 + 1e-6 * abs(lu):
            return WRONG
        return OK

    return Item("large", d, run, check, extracts=s, label=f"{form} d={d}")


def large_dim(rng, tiny: bool = False) -> list[Item]:
    """inverse -> forward -> cholesky_factor -> det_from_params on d 32, 48,
    64: per d one full-rank PSD, one of rank d/4 (masked path) and one not
    PSD (reject path, failing in the last band)."""
    items = []
    for d in ((8,) if tiny else (32, 48, 64)):
        items += [_large_item(psd(rng, d, 2 * d), "full"),
                  _large_item(psd(rng, d, d // 4), "rank"),
                  _large_item(corner_not_psd(psd(rng, d, 2 * d)), "reject")]
    return items


# ---------------------------------------------------------------------------
# cli


class CliRunner:
    """Runs ``python -m schurq.cli`` against ``src`` in the checkout."""

    def __init__(self, src: str, work: str, env: dict):
        self.work = work
        self.env = dict(env, PYTHONPATH=src)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def run(self, argv, outputs=()):
        proc = subprocess.run([sys.executable, "-m", "schurq.cli", *argv],
                              capture_output=True, env=self.env,
                              cwd=self.work, timeout=120)
        files = {}
        for name in outputs:
            with open(self.path(name), "rb") as fh:
                files[name] = fh.read()
        return proc.returncode, proc.stdout, files


def _dump_matrix(m) -> str:
    return F.dumps_canonical(F.matrix_to_obj(m))


def _load_matrix(path: str) -> np.ndarray:
    return F.matrix_from_obj(F.load_json(path))


def _cli_item(cli: CliRunner, argv, expect_out: str, expect_files=None,
              size: int = 0, extracts=None) -> Item:
    expect_files = {k: v.encode() for k, v in (expect_files or {}).items()}
    for name in expect_files:
        # A stale file from an earlier run must not pass for this one's output.
        if os.path.exists(cli.path(name)):
            os.remove(cli.path(name))

    def run():
        return cli.run(argv, outputs=tuple(expect_files))

    expected = expect_out.encode()

    def check(value, error):
        if error is not None:
            return REFUSED
        rc, out, files = value
        if rc != 0:
            return REFUSED
        return OK if out == expected and files == expect_files else WRONG

    return Item("cli." + argv[0], size, run, check, extracts=extracts)


def _state_report(path: str) -> str:
    """In-process mirror of ``schurq state --report``."""
    st = S.state_from_matrix(_load_matrix(path))
    pure = S.is_pure(st)
    report = {
        "dim": st.dim,
        "pure": bool(pure),
        "entropy_E": F.encode_scalar(S.entropy_E(st)),
        "entropy_E0": F.encode_scalar(S.entropy_E0(st)),
        "params": F.params_to_obj(st.params),
    }
    if pure:
        report["pure_vector"] = [[float(z.real), float(z.imag)]
                                 for z in S.pure_vector(st)]
    return F.dumps_canonical(report)


def _separability_report(path: str) -> str:
    verdict = S.is_separable_params(S.state_from_matrix(_load_matrix(path)))
    witness = verdict.witness
    if isinstance(witness, float):
        witness = F.encode_scalar(witness)
    return F.dumps_canonical({"separable": bool(verdict.separable),
                              "method": verdict.method, "witness": witness})


def cli(rng, runner: CliRunner) -> list[Item]:
    """One pass = one sequential call of each subcommand on small files.

    Input files are written and the expected stdout / output-file bytes are
    computed in-process here, before any timing.
    """
    seed = int(rng.integers(1, 2 ** 31))
    files = {"psd4.json": psd(rng, 4, 8), "psd16.json": psd(rng, 16, 32),
             "pure4.json": psd(rng, 4, 1) / 4, "mixed2x2.json": psd(rng, 4, 4) / 4,
             "choi2.json": tp_choi(rng, 2)}
    for name, m in files.items():
        F.write_text(runner.path(name), _dump_matrix(m))
    loaded = {name: _load_matrix(runner.path(name)) for name in files}

    p4 = P.inverse(loaded["psd4.json"])
    F.write_text(runner.path("p4.json"), F.dumps_canonical(F.params_to_obj(p4)))
    p4_read = F.params_from_obj(F.load_json(runner.path("p4.json")))

    items = []
    for name in ("psd4.json", "psd16.json"):
        m = loaded[name]
        for method, extract in (("direct", P.inverse),
                                ("displacement", D.displacement_inverse)):
            items.append(_cli_item(
                runner, ("parametrize", "--in", name, "--method", method),
                F.dumps_canonical(F.params_to_obj(extract(m))),
                size=m.shape[0], extracts=m))
    chol = P.cholesky_factor(p4_read) * p4_read.diag[None, :]
    items.append(_cli_item(
        runner, ("reconstruct", "--in", "p4.json", "--cholesky", "chol4.json"),
        _dump_matrix(P.forward(p4_read)), {"chol4.json": _dump_matrix(chol)},
        size=4))
    items.append(_cli_item(runner, ("state", "--in", "pure4.json", "--report"),
                           _state_report(runner.path("pure4.json")), size=4))
    choi = C.ChoiMatrix(2, 2, loaded["choi2.json"])
    kraus = {f"k_{i}.json": _dump_matrix(g) for i, g in
             enumerate(C.kraus_from_choi(choi).generators, start=1)}
    items.append(_cli_item(
        runner, ("channel", "--choi", "choi2.json", "--din", "2", "--dout", "2",
                 "--kraus", "k", "--capacity"),
        F.dumps_canonical({"capacity": F.encode_scalar(C.capacity_D(choi))}),
        kraus, size=4))
    items.append(_cli_item(
        runner, ("separability", "--in", "mixed2x2.json", "--method", "params"),
        _separability_report(runner.path("mixed2x2.json")), size=4))
    for kind, dim, gen, extra in (("psd", 4, R.random_psd, ()),
                                  ("state", 4, R.random_state, ()),
                                  ("channel", 2, R.random_choi, ("--tp",))):
        if kind == "channel":
            m = gen(seed, dim, dim, tp=True)
        else:
            m = gen(seed, dim)
        items.append(_cli_item(
            runner, ("random", "--kind", kind, "--dim", str(dim),
                     "--seed", str(seed), *extra),
            _dump_matrix(m), size=dim))
    return items
