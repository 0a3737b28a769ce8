"""schurq benchmark: one workload, one seed, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the corpora):

* ``small-batch`` -- thousands of small in-process items (states, channels,
  two-qubit separability, a PSD screen with a hard slice), d <= 16;
* ``large-dim``   -- inverse -> forward -> cholesky_factor -> det_from_params
  on d 32, 48, 64 (full rank, rank d/4, not PSD);
* ``cli``         -- sequential ``python -m schurq.cli`` subprocesses.

The process pins BLAS to one thread, builds its inputs from ``--seed``, runs
whole passes over the corpus until ``--seconds`` have elapsed, and checks
every result against an independent oracle.  Times are scaled to the host's
reference speed (hostload.py), and an item's latency is the median over its
passes.  A human-readable report goes to stdout; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, then runs a tiny pass of every workload (the
layer probe) so every layer has spans, and reports the per-layer metrics.
Spans and a per-layer self-time summary are written under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

from hostload import REFERENCE_S, HostLoad

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("small-batch", "large-dim", "cli")
SETUP_SAMPLES = 11
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {mod}; "
                "print(time.perf_counter() - t)")
# ROADMAP baseline for inverse at d = 64 (best of 3 on a 2-core x86_64 host).
BASELINE_INVERSE_S = 1.35
BASELINE_INVERSE_MB = 22.0


def _import_cmd(module: str) -> list[str]:
    return [sys.executable, "-c", IMPORT_PROBE.format(mod=module)]


def _import_once(cmd, env: dict, cwd: str) -> float:
    """In-process time of one import in a fresh interpreter."""
    out = subprocess.run(cmd, env=env, cwd=cwd, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def _import_seconds(env: dict, cwd: str, module: str, samples: int) -> float:
    """Median in-process time of ``import module`` over fresh interpreters.

    One unmeasured import first, so byte-code compilation is not counted.
    """
    cmd = _import_cmd(module)
    _import_once(cmd, env, cwd)
    return statistics.median(_import_once(cmd, env, cwd)
                             for _ in range(samples))


def _src_lines(src: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _header(np, args, src: str) -> list[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_desc = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"host: {os.cpu_count()} cores ({len(os.sched_getaffinity(0))} usable), "
        f"{platform.machine()}, python {platform.python_version()}, "
        f"numpy {np.__version__}, blas {blas_desc}, {threads}",
        f"src lines: {_src_lines(src)} (informational, not gated)",
    ]


class Runner:
    """Closed-loop driver for one corpus: one item at a time, each result
    checked against its oracle right after its timed call."""

    def __init__(self, items, tracer=None):
        self.items = items
        self.tracer = tracer
        # Compact per-sample records, so the process's memory does not grow
        # with the number of items a run gets through.
        self.latencies = array("d")
        self.starts = array("d")
        self.index = array("l")
        self.failures: list[tuple[int, str, str | None]] = []

    def one_pass(self, tag: str, traced: bool, after_item=None) -> float:
        """Run every item once; return the pass's busy (timed) seconds.

        ``after_item()``, if given, runs after each item's check, untimed.
        """
        from workloads import OK
        tr = self.tracer if traced else None
        busy = 0.0
        if tr is not None:
            tr.install()
        try:
            for idx, item in enumerate(self.items):
                if tr is not None:
                    tr.item = f"{tag}:{idx}"
                    name = item.kind if item.kind.startswith("cli.") \
                        else "bench." + item.kind
                    with tr.span(name):
                        t0, lat, value, err = self._call(item)
                else:
                    t0, lat, value, err = self._call(item)
                verdict = item.check(value, err)
                if verdict != OK:
                    self.failures.append((idx, verdict, None if err is None
                                          else f"{type(err).__name__}: {err}"))
                self.latencies.append(lat)
                self.starts.append(t0)
                self.index.append(idx)
                busy += lat
                if after_item is not None:
                    after_item()
        finally:
            if tr is not None:
                tr.uninstall()
        return busy

    @staticmethod
    def _call(item):
        t0 = time.perf_counter()
        try:
            value, err = item.run(), None
        except Exception as exc:  # item boundary: record and keep going
            # Without its traceback the error no longer holds the failed
            # call's frames, whose working memory would outlive the call.
            value, err = None, exc.with_traceback(None)
        return t0, time.perf_counter() - t0, value, err


def _build(W, name, rng, out_dir, env, src, tiny=False):
    if name == "small-batch":
        return W.small_batch(rng, tiny)
    if name == "large-dim":
        return W.large_dim(rng, tiny)
    work = os.path.join(out_dir, "cli-probe" if tiny else "cli")
    os.makedirs(work, exist_ok=True)
    return W.cli(rng, W.CliRunner(src, work, env))


def _warm_up(W, name, rng, out_dir, env, src):
    """Untimed tiny pass: first-call costs of numpy and the bytecode cache."""
    Runner(_build(W, name, rng, out_dir, env, src, tiny=True)).one_pass(
        "warmup", False)


def _tally(runner, lines):
    """(attempted, failed, correct) of a runner; failures listed in lines."""
    from workloads import WRONG
    by_kind: dict[str, int] = {}
    for idx, verdict, err in runner.failures:
        item = runner.items[idx]
        key = f"{item.kind} {item.label} d={item.size} {verdict}".replace(
            "  ", " ")
        if err is not None:
            key += f" ({err})"
        by_kind[key] = by_kind.get(key, 0) + 1
    for key, n in sorted(by_kind.items()):
        lines.append(f"failed x{n}: {key}")
    correct = all(v != WRONG for _, v, _ in runner.failures)
    return len(runner.latencies), len(runner.failures), correct


def _percentile(np, values, q):
    return float(np.percentile(np.asarray(values), q))


def end_to_end(args, W, np, env, src, out_dir, lines):
    rng = np.random.default_rng(args.seed)
    items = _build(W, args.workload, rng, out_dir, env, src)
    _warm_up(W, args.workload, np.random.default_rng(args.seed + 1), out_dir,
             env, src)

    # setup_s samples are spread evenly over the run, between items, and
    # scaled like the items; each is (start, end, in-process import seconds).
    cwd = os.getcwd()
    import_cmd = _import_cmd("schurq")
    _import_once(import_cmd, env, cwd)  # fills the bytecode cache
    setup: list[tuple[float, float, float]] = []

    def sample_setup():
        t0 = time.perf_counter()
        took = _import_once(import_cmd, env, cwd)
        setup.append((t0, time.perf_counter(), took))

    def maybe_sample_setup():
        due = len(setup) * args.seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= due:
            sample_setup()

    runner = Runner(items)
    busy = passes = 0
    with HostLoad() as load:
        start = time.perf_counter()
        while passes == 0 or busy < args.seconds:
            busy += runner.one_pass(f"p{passes}", False, maybe_sample_setup)
            passes += 1
        while len(setup) < SETUP_SAMPLES:
            sample_setup()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct = _tally(runner, lines)

    # An item's latency is the median over its repetitions of its time at
    # the host's reference speed (hostload.py): the host's load drifts by a
    # third within minutes, which wall-clock times would report as the
    # program's.
    lat = np.asarray(runner.latencies)
    starts = np.asarray(runner.starts)
    index = np.asarray(runner.index)
    scaled = lat * load.scale(starts, starts + lat)
    per_item = np.array([np.median(scaled[index == i])
                         for i in range(len(items))])
    wall = np.array([np.median(lat[index == i]) for i in range(len(items))])
    setup_at = np.array(setup)
    setup_s = setup_at[:, 2] * load.scale(setup_at[:, 0], setup_at[:, 1])

    lines.append(f"{passes} passes of {len(items)} items, {busy:.3f} s timed; "
                 f"latency of an item = median of its {passes} repetitions "
                 f"at reference speed; percentiles over {len(items)} items"
                 + ("" if len(items) >= 100 else
                    " (fewer than 100: p90 has under ten items beyond it)"))
    lines.append(f"load: probe loop mean {load.mean_s() * 1e6:.2f} us against "
                 f"the reference {REFERENCE_S * 1e6:.2f} us; wall-clock "
                 f"{len(items) / wall.sum():.4g} items/s, p50 "
                 f"{np.percentile(wall, 50) * 1e3:.4g} ms")
    groups: dict[str, list[float]] = {}
    for item, t in zip(items, per_item):
        groups.setdefault(f"{item.kind} {item.label}".strip(), []).append(t)
    lines.append("latency by group (median ms, items): " + ", ".join(
        f"{k} {statistics.median(v) * 1e3:.3f} ({len(v)})"
        for k, v in groups.items()))
    lines.append("setup_s samples (s): "
                 + " ".join(f"{t:.4f}" for t in setup_s))
    lines.append(f"error_rate = {failed}/{attempted} = {failed / attempted:.6f}")
    metrics = {
        "setup_s": (float(np.median(setup_s)), "s"),
        "throughput_ops_s": (len(items) / float(per_item.sum()), "1/s"),
        "latency_p50_ms": (_percentile(np, per_item, 50) * 1e3, "ms"),
        "latency_p90_ms": (_percentile(np, per_item, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    return correct, attempted, failed, metrics


# ---------------------------------------------------------------------------
# Traced run

PER_CALL = (
    "params.inverse", "params.forward", "params.cholesky_factor",
    "params.is_psd_via_params", "states.state_from_matrix", "states.entropy_E",
    "states.is_pure", "states.is_separable_params", "states.is_separable_ppt",
    "channels.kraus_from_choi", "channels.capacity_D", "channels.choi_tensor",
    "cli.parametrize", "cli.reconstruct", "cli.state", "cli.channel",
    "cli.separability", "cli.random", "fileio.matrix_from_obj",
    "fileio.params_to_obj", "fileio.dumps_canonical", "rng.random_psd",
    "rng.random_state", "rng.random_choi", "displacement.displacement_inverse",
)
WORKLOAD_PHASES = ("pass", "prepare")


def _spans_for(tracer, name):
    """Spans of ``name`` from the workload itself, else from the layer probe."""
    own = [sp for sp in tracer.spans
           if sp.name == name and sp.phase in WORKLOAD_PHASES]
    if own:
        return own, "workload"
    return [sp for sp in tracer.spans
            if sp.name == name and sp.phase == "probe"], "probe"


def _peak_bytes(W, np, items) -> tuple[int, int]:
    import tracemalloc
    from schurq import params as P
    cands = [it.extracts for it in items
             if it.extracts is not None and W.oracle_psd(it.extracts)]
    m = max(cands, key=lambda a: a.shape[0])
    tracemalloc.start()
    try:
        P.inverse(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, m.shape[0]


def traced(args, W, np, env, src, out_dir, lines):
    from tracing import Tracer
    tracer = Tracer()
    rng = np.random.default_rng(args.seed)
    tracer.phase = "prepare"
    tracer.item = "prepare"
    tracer.install()
    try:
        items = _build(W, args.workload, rng, out_dir, env, src)
    finally:
        tracer.uninstall()
    _warm_up(W, args.workload, np.random.default_rng(args.seed + 1), out_dir,
             env, src)

    # Alternate untraced and traced passes; the difference is the overhead.
    tracer.phase = "pass"
    runner = Runner(items, tracer)
    busy = {False: [], True: []}
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < args.seconds:
        for flag in ((False, True) if pair % 2 == 0 else (True, False)):
            busy[flag].append(runner.one_pass(f"p{pair}{'t' if flag else 'u'}",
                                              flag))
        pair += 1
    attempted, failed, correct = _tally(runner, lines)
    n_traced = len(busy[True])

    tracer.phase = "probe"
    for wl in WORKLOADS:
        tracer.item = f"probe:{wl}:prepare"
        tracer.install()
        try:
            probe_items = _build(W, wl, np.random.default_rng(args.seed + 2),
                                 out_dir, env, src, tiny=True)
        finally:
            tracer.uninstall()
        probe = Runner(probe_items, tracer)
        probe.one_pass(f"probe:{wl}", True)
        if probe.failures:
            lines.append(f"probe {wl}: {len(probe.failures)} of "
                         f"{len(probe_items)} items failed their oracle")

    peak, peak_d = _peak_bytes(W, np, items)
    import_s = _import_seconds(env, os.getcwd(), "schurq.cli", 3)

    metrics = {}
    sources = {}
    for name in PER_CALL:
        spans, sources[name] = _spans_for(tracer, name)
        mean = sum(sp.duration for sp in spans) / len(spans)
        metrics[name + ".s"] = (mean, "s")
    inv_pass = sum(1 for sp in tracer.spans
                   if sp.name == "params.inverse" and sp.phase == "pass")
    inv_prep = sum(1 for sp in tracer.spans
                   if sp.name == "params.inverse" and sp.phase == "prepare")
    metrics["params.inverse.calls"] = (inv_pass / n_traced + inv_prep, "count")
    metrics["params.inverse.peak_bytes"] = (peak, "bytes")
    inv, _ = _spans_for(tracer, "params.inverse")
    upper = sum(sp.attrs.get("upper", 0) for sp in inv)
    masked = sum(sp.attrs.get("masked", 0) for sp in inv)
    metrics["params.inverse.masked_frac"] = (masked / upper if upper else 0.0,
                                             "ratio")
    psd_spans, _ = _spans_for(tracer, "params.is_psd_via_params")
    rejects = sum(1 for sp in psd_spans
                  if (sp.attrs or {}).get("verdict") is False)
    metrics["params.is_psd_via_params.reject_frac"] = (
        rejects / len(psd_spans), "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    untraced_s = statistics.median(busy[False])
    overhead = statistics.median(busy[True]) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_s, "ratio")

    from_probe = sorted(n for n, s in sources.items() if s == "probe")
    lines.append(f"{pair} pairs of passes ({len(items)} items each); "
                 f"untraced pass {untraced_s:.4f} s, traced pass "
                 f"{statistics.median(busy[True]):.4f} s, overhead "
                 f"{overhead:+.4f} s per pass ({overhead / untraced_s:+.2%})")
    if from_probe:
        lines.append("from the layer probe (not called by this workload): "
                     + ", ".join(from_probe))
    lines.append(f"tracemalloc peak of one inverse at d={peak_d}: "
                 f"{peak / 2 ** 20:.2f} MiB")

    summary = {phase: tracer.summary((phase,))
               for phase in ("pass", "prepare", "probe")}
    pass_total = sum(busy[True])
    lines.append("per-layer self time per traced pass (share of timed time):")
    for layer, secs in sorted(summary["pass"]["layer_self_s"].items(),
                              key=lambda kv: -kv[1]):
        lines.append(f"  {layer:13s} {secs / n_traced:10.4f} s  "
                     f"{secs / pass_total:7.2%}")
    if summary["prepare"]["functions"]:
        lines.append("in-process calls before timing, self time per layer: "
                     + ", ".join(f"{k} {v:.4f} s" for k, v in
                                 summary["prepare"]["layer_self_s"].items()))
    sanity = _sanity(tracer, peak, peak_d)
    if sanity:
        lines.append(sanity)

    stem = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}")
    tracer.dump(stem + ".spans.jsonl")
    with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump({"header": lines[:3], "traced_passes": n_traced,
                   "pass_busy_s": {"untraced": busy[False],
                                   "traced": busy[True]},
                   "self_time": summary,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "sources": sources}, fh, indent=2)
    rel = os.path.relpath(stem)
    lines.append(f"spans: {rel}.spans.jsonl; summary: {rel}.summary.json")
    return correct, attempted, failed, metrics


def _sanity(tracer, peak, peak_d) -> str | None:
    """Traced inverse at d = 64 against the ROADMAP baseline."""
    own = [sp.duration for sp in tracer.spans
           if sp.name == "params.inverse" and sp.phase == "pass"
           and sp.attrs and sp.attrs.get("dim") == 64
           and not sp.attrs.get("rejected")]
    if not own or peak_d != 64:
        return None
    med = statistics.median(own)
    mb = peak / 1e6
    line = (f"sanity: traced params.inverse at d=64 median {med:.3f} s over "
            f"{len(own)} accepted calls (ROADMAP ~{BASELINE_INVERSE_S} s), "
            f"tracemalloc peak {mb:.1f} MB (ROADMAP ~{BASELINE_INVERSE_MB} MB)")
    if not (0.7 <= med / BASELINE_INVERSE_S <= 1.5
            and 0.7 <= mb / BASELINE_INVERSE_MB <= 1.5):
        line += ("; gap: the baseline is best-of-3 on one random input, this "
                 "is a median over full-rank and rank-d/4 inputs on a shared "
                 "host")
    return line


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schurq", "__init__.py")):
        print("perfbench: src/schurq not found under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=src)
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    import numpy as np
    import workloads as W

    lines = _header(np, args, src)
    fn = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = fn(args, W, np, env, src, out_dir,
                                             lines)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:40s} {value:16.6f} {unit}")
    print("\n".join("# " + ln for ln in lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
