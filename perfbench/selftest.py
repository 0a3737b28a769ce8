"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

* each workload's tiny corpus runs and every item passes its oracle;
* a planted wrong answer -- ``is_psd_via_params`` stubbed to always say
  "PSD" -- raises the error rate and marks the run incorrect;
* a traced pass records nested spans at the layer boundaries and leaves the
  library untouched afterwards;
* ``run.py`` exits non-zero without printing a result in a directory that
  holds only the benchmark.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schurq", "__init__.py")):
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import numpy as np
    import run
    import workloads as W
    from schurq import params as P
    from tracing import Tracer

    out_dir = os.path.join(root, ".perfbench_out", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    def tiny_pass(name, tracer=None):
        items = run._build(W, name, np.random.default_rng(7), out_dir, env,
                           src, tiny=True)
        runner = run.Runner(items, tracer)
        runner.one_pass("selftest", tracer is not None)
        return run._tally(runner, [])

    for name in run.WORKLOADS:
        attempted, failed, correct = tiny_pass(name)
        expect(attempted > 0 and failed == 0 and correct,
               f"{name}: tiny pass of {attempted} items, {failed} failed")

    real = P.is_psd_via_params
    P.is_psd_via_params = lambda s, tol=None: True
    try:
        attempted, failed, correct = tiny_pass("small-batch")
    finally:
        P.is_psd_via_params = real
    expect(failed > 0 and not correct,
           f"stubbed PSD verdict: error rate {failed}/{attempted}, "
           f"correct={correct}")

    tracer = Tracer()
    tiny_pass("small-batch", tracer)
    by_id = {sp.sid: sp for sp in tracer.spans}
    nested = any(sp.name == "params.inverse" and sp.parent is not None
                 and by_id[sp.parent].name == "states.state_from_matrix"
                 for sp in tracer.spans)
    expect(nested, "traced pass nests params.inverse under "
                   "states.state_from_matrix")
    expect(P.inverse.__module__ == "schurq.params"
           and not hasattr(P.inverse, "__wrapped__"),
           "tracer restores the library functions")

    bare = os.path.join(out_dir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without src/ exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
