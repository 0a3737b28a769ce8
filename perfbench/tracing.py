"""Layer-boundary spans recorded from outside the library.

The tracer swaps selected public functions of the ``schurq`` modules for
wrappers that record a span per call: name, start, end, the enclosing span
and the current item id.  Every module attribute that refers to the original
function is swapped, including the names other ``schurq`` modules imported,
so a call from ``states`` into ``params.inverse`` nests under the
``states`` span.  Nothing inside the library is edited; ``uninstall``
restores the originals.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped when tracing is on.  ``linalg.maxnorm`` and
# ``params.defect`` are left out on purpose: they run inside the band loops
# and a wrapper there would measure itself.
TRACED = {
    "params": ("inverse", "forward", "cholesky_factor", "det_from_params",
               "is_psd_via_params"),
    "displacement": ("displacement_inverse",),
    "linalg": ("hermitize", "reference_eigenvalues", "kron"),
    "states": ("state_from_matrix", "entropy_E", "entropy_E0", "is_pure",
               "pure_vector", "is_separable_params", "is_separable_ppt",
               "partial_transpose"),
    "channels": ("kraus_from_choi", "capacity_D", "choi_tensor",
                 "map_from_choi"),
    "rng": ("random_psd", "random_state", "random_choi"),
    "fileio": ("matrix_from_obj", "matrix_to_obj", "params_to_obj",
               "dumps_canonical", "load_json"),
}

class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "item", "phase",
                 "attrs")

    def __init__(self, sid, name, start, parent, item, phase):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.phase = phase
        self.attrs = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe(name, args, result, error):
    """Per-call counts taken where the work happens."""
    if name == "params.inverse":
        dim = len(args[0])
        if error is not None:
            return {"dim": dim, "rejected": True}
        upper = dim * (dim - 1) // 2
        return {"dim": dim, "masked": upper - int(result.defined.sum()),
                "upper": upper}
    if name == "params.is_psd_via_params" and error is None:
        return {"verdict": bool(result)}
    return None


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.item = None
        self.phase = "pass"
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent,
                  self.item, self.phase)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(sp)
                sp.attrs = _observe(name, args, None, exc)
                raise
            tracer._close(sp)
            sp.attrs = _observe(name, args, result, None)
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to a traced function in loaded schurq modules."""
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "schurq" or n.startswith("schurq."))}
        for modname, names in TRACED.items():
            home = mods["schurq." + modname]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # ------------------------------------------------------------------
    # Summaries

    def self_times(self, phases) -> dict[int, float]:
        """Span id -> duration minus the part its direct children cover."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        return {sp.sid: sp.duration - child[sp.sid] for sp in self.spans
                if sp.phase in phases}

    def summary(self, phases) -> dict:
        """Per-function and per-layer totals over spans of the given phases."""
        selft = self.self_times(phases)
        funcs: dict[str, dict] = {}
        layers = defaultdict(float)
        for sp in self.spans:
            if sp.phase not in phases:
                continue
            f = funcs.setdefault(sp.name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            f["calls"] += 1
            f["total_s"] += sp.duration
            f["self_s"] += selft[sp.sid]
            layers[sp.layer] += selft[sp.sid]
        return {"functions": dict(sorted(funcs.items())),
                "layer_self_s": dict(sorted(layers.items()))}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                rec = {"id": sp.sid, "name": sp.name,
                       "start": sp.start - self.t0, "end": sp.end - self.t0,
                       "parent": sp.parent, "item": sp.item,
                       "phase": sp.phase}
                if sp.attrs:
                    rec["attrs"] = sp.attrs
                fh.write(json.dumps(rec) + "\n")
