#!/usr/bin/env python3
"""Two-qubit separability: partial-transpose test vs parameter search.

The Werner family rho(p) = p |bell><bell| + (1-p) I/4 is separable
exactly for p <= 1/3.  This demo sweeps p, runs both tests, and prints
the witness each produces:

  * ppt    — is the partial transpose PSD (checked via its parameters);
             witness = its minimal eigenvalue,
  * params — search for partial-transpose parameters satisfying the
             closed-form solvability inequalities; witness = the first
             infeasible condition when entangled.

The two verdicts must agree (the package raises an internal consistency
error if they ever disagree).

Everything prints to stdout; run with no arguments.
"""

import numpy as np

from schurq import (
    is_separable_params,
    is_separable_ppt,
    state_from_matrix,
    werner_state,
)

print("Werner sweep: rho(p) = p|bell><bell| + (1-p)I/4, flip at p = 1/3")
print(f"{'p':>6s} {'ppt':>6s} {'params':>8s}   witness (ppt: min PT eigenvalue)")
for p in [0.0, 0.2, 0.33, 1.0 / 3.0, 0.34, 0.5, 0.9]:
    st = werner_state(p)
    v_ppt = is_separable_ppt(st)
    v_par = is_separable_params(st)
    assert v_ppt.separable == v_par.separable
    print(f"{p:6.3f} {str(v_ppt.separable):>6s} {str(v_par.separable):>8s}"
          f"   {v_ppt.witness:+.6f}")
print("\nmin PT eigenvalue is (1 - 3p)/4: crosses zero exactly at p = 1/3")

print("\nA product state stays separable under both tests:")
rng = np.random.default_rng(5)
a = rng.normal(size=2) + 1j * rng.normal(size=2)
b = rng.normal(size=2) + 1j * rng.normal(size=2)
a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
rho = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
st = state_from_matrix(rho)
print("  ppt   :", is_separable_ppt(st).separable)
print("  params:", is_separable_params(st).separable)

print("\nEntangled verdicts come with a readable certificate:")
v = is_separable_params(werner_state(0.9))
print(" ", v.witness)
