"""A verdict corpus: hard inputs for the PSD verdict of both extraction
routes, by class, and the eigenvalue oracle that judges them.

Each generator takes a ``numpy.random.Generator`` and a dimension and
returns a Hermitian matrix.  The classes:

- ``psd``: X*X of a complex Gaussian X, full rank;
- ``rank``: rank r in 1..d-1;
- ``near rank``: rank one plus 1e-11 Y*Y, positive definite;
- ``zero row``: full rank with one row and column set to exactly 0;
- ``noisy zero rows``: a state on a proper subset of the indices, rotated
  by a unitary and back, so its zero rows carry rounding noise;
- ``tiny``: full rank times 1e-20;
- ``hilbert``: the Hilbert matrix, PSD and ill-conditioned;
- ``graded``: D·Q·D for a positive diagonal D of spread up to 1e12;
- ``graded below``: graded, shifted so that its least eigenvalue is a
  thousandth of the entry slack below 0: indefinite, far inside the slack;
- ``corner``: rank d/2 with 1e-3 added to both corner entries, indefinite;
- ``shift <f>``: full rank shifted so its least eigenvalue is f times the
  entry slack below 0.

:func:`oracle` is the verdict they are judged against: LAPACK eigenvalues
at the absolute entry slack.

:func:`tensor_corpus` draws pairs of parameter sets for tensor products.
Run as a script, this module takes the full tensor corpus of
``default_rng(2828)`` through ``tensor_params``: how many products
``inverse`` accepts and rejects, the worst reconstruction residual against
its bound, and each rejected product's least eigenvalue in entry slacks.
"""

import numpy as np

from schurq.linalg import DEFAULT_TOL, NotPSDError, kron, maxnorm
from schurq.params import SchurParams, forward, inverse

SHIFTS = (0.1, 0.5, 0.9, 1.1, 2.0, 30.0)


def entry_slack(s: np.ndarray) -> float:
    return DEFAULT_TOL.entry(maxnorm(s))


def oracle(s: np.ndarray) -> bool:
    """PSD at the entry slack: the least eigenvalue (``eigvalsh``) is at
    least minus the entry slack of ``s``."""
    return bool(np.linalg.eigvalsh(s)[0] >= -entry_slack(s))


def _hermitian(s: np.ndarray) -> np.ndarray:
    return 0.5 * (s + s.conj().T)


def _cx(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gram(rng, d: int, r: int) -> np.ndarray:
    """X*X with X a complex Gaussian r x d: rank min(r, d)."""
    x = _cx(rng, (r, d))
    return _hermitian(x.conj().T @ x)


def graded(rng, d: int, spread: float) -> np.ndarray:
    """D·Q·D, Q = X*X of a complex Gaussian d x d, D = diag(10^(-spread·i/(d-1)))."""
    dvec = 10.0 ** (-spread * np.arange(d) / max(d - 1, 1))
    return dvec[:, None] * gram(rng, d, d) * dvec


def noisy_zero_rows(rng, d: int, rank: int | None = None) -> np.ndarray:
    """A unit-trace state of the given rank (random if None) supported on a
    random proper subset of the indices, rotated by a random unitary q and
    back: q*(q ρ q*) q.  Its zero rows carry rounding noise."""
    support = np.sort(rng.choice(d, size=int(rng.integers(1, d)), replace=False))
    r = int(rng.integers(1, support.size + 1)) if rank is None else rank
    x = _cx(rng, (r, support.size))
    rho = np.zeros((d, d), dtype=np.complex128)
    rho[np.ix_(support, support)] = x.conj().T @ x
    rho /= np.trace(rho).real
    q, _ = np.linalg.qr(_cx(rng, (d, d)))
    return _hermitian(q.conj().T @ (q @ rho @ q.conj().T) @ q)


def slack_shift(s: np.ndarray, factor: float) -> np.ndarray:
    """``s`` shifted so that its least eigenvalue is ``-factor`` times its
    entry slack."""
    lam = np.linalg.eigvalsh(s)[0]
    return s - (lam + factor * entry_slack(s)) * np.eye(s.shape[0])


def entry_perturbed(rng, d: int) -> np.ndarray:
    """Rank r in 1..max(1, d//4) plus 10^U(-13, -8) of a full-rank gram,
    with one entry pair (k, j), k <= j, moved by a complex 10^U(-12, -4) of
    uniform phase (and its conjugate): near the rank and near the PSD
    boundary at once, so both extraction routes mask and judge entries."""
    r = int(rng.integers(1, max(1, d // 4) + 1))
    s = gram(rng, d, r) + 10 ** rng.uniform(-13, -8) * gram(rng, d, d)
    k, j = sorted(rng.choice(d, 2))
    delta = 10 ** rng.uniform(-12, -4) * np.exp(2j * np.pi * rng.uniform())
    s[k, j] += delta
    s[j, k] += np.conj(delta)
    return s


def hilbert(d: int) -> np.ndarray:
    i = np.arange(d)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


def _corner(rng, d: int) -> np.ndarray:
    s = gram(rng, d, max(d // 2, 1))
    s[0, d - 1] += 1e-3
    s[d - 1, 0] += 1e-3
    return s


def _zero_row(rng, d: int) -> np.ndarray:
    s = gram(rng, d, d)
    i = int(rng.integers(d))
    s[i, :] = 0.0
    s[:, i] = 0.0
    return s


CLASSES = {
    "psd": lambda rng, d: gram(rng, d, d),
    "rank": lambda rng, d: gram(rng, d, int(rng.integers(1, d))),
    "near rank": lambda rng, d: gram(rng, d, 1) + 1e-11 * gram(rng, d, d),
    "zero row": _zero_row,
    "noisy zero rows": noisy_zero_rows,
    "tiny": lambda rng, d: 1e-20 * gram(rng, d, d),
    "graded": lambda rng, d: graded(rng, d, rng.uniform(0.0, 12.0)),
    "graded below": lambda rng, d: slack_shift(graded(rng, d, rng.uniform(0.0, 12.0)), 1e-3),
    "corner": _corner,
    **{f"shift {f:g}": (lambda f: lambda rng, d: slack_shift(gram(rng, d, d), f))(f)
       for f in SHIFTS},
}


def corpus(rng, dims, per_class: int) -> list[tuple[str, np.ndarray]]:
    """``per_class`` inputs of every class at each dimension in ``dims``
    (at least 2), plus the Hilbert matrices of those dimensions."""
    cases = [("hilbert", hilbert(d)) for d in dims]
    for name, make in CLASSES.items():
        cases += [(name, make(rng, d)) for d in dims for _ in range(per_class)]
    return cases


def tensor_corpus(rng) -> tuple[list[SchurParams], list[tuple[int, int]]]:
    """A pool of 150 parameter sets and 3000 distinct index pairs into it
    (the first entries of a permutation of all 150² pairs).

    The first 120 sets come from ``inverse``: for d in 1..8, three draws
    each of ``gram`` at rank d, d//2 (at least 1) and 1, ``graded`` of
    spread 6 and ``noisy_zero_rows`` (``gram`` at rank d for d < 3).  The
    last 30 are built directly: for d in 2..6, six sets each, with Γ moduli
    U(0, 1) and uniform phases, Γ[0, 1] put on the circle, and diagonal
    U(0.1, 2)."""
    pool = []
    for d in range(1, 9):
        makers = (lambda: gram(rng, d, d), lambda: gram(rng, d, max(1, d // 2)),
                  lambda: gram(rng, d, 1), lambda: graded(rng, d, 6.0),
                  (lambda: noisy_zero_rows(rng, d)) if d >= 3 else (lambda: gram(rng, d, d)))
        pool += [inverse(make()) for make in makers for _ in range(3)]
    for d in range(2, 7):
        for _ in range(6):
            moduli = rng.uniform(0.0, 1.0, (d, d))
            gamma = np.triu(moduli * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (d, d))), 1)
            gamma[0, 1] /= abs(gamma[0, 1])
            pool.append(SchurParams(d, rng.uniform(0.1, 2.0, d), gamma))
    n = len(pool)
    return pool, [divmod(int(k), n) for k in rng.permutation(n * n)[:3000]]


if __name__ == "__main__":
    from collections import Counter

    from schurq.states import tensor_params

    pool, pairs = tensor_corpus(np.random.default_rng(2828))
    worst, reasons, built, below = 0.0, Counter(), 0, []
    for i, j in pairs:
        s = kron(forward(pool[i]), forward(pool[j]))
        try:
            flat = tensor_params(pool[i], pool[j])
        except NotPSDError as exc:
            reasons[exc.reason] += 1
            built += max(i, j) >= 120
            below.append((s.shape[0], -np.linalg.eigvalsh(s)[0] / entry_slack(s), i, j))
            continue
        worst = max(worst, maxnorm(forward(flat) - s) / (100.0 * entry_slack(s)))
    print(f"{len(pairs) - len(below)} of {len(pairs)} products accepted; "
          f"worst residual {worst:.4g} of 100 entry slacks")
    print(f"rejected: {dict(reasons)}; {built} involve a directly built set")
    if below:
        print(f"worst least eigenvalue of a rejected product: {max(b[1] for b in below):.3g} "
              f"entry slacks below 0")
        d, _, i, j = min(below)
        print(f"smallest rejected product: D = {d}, pool sets {i} and {j}")
