"""Spans and counts around the package's public functions, installed from outside.

install() replaces every binding of a public function of the model, berry,
echo, triple and cli modules -- module attributes, the package's re-exports
and dispatch tables alike -- with one recording wrapper per function, and
wraps DriveSchedule.params_at at class level.  The package's files are not
touched.  Spans stay in memory with their parent ids until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array

import numpy as np

MODULES = ("model", "berry", "echo", "triple", "cli")

# Results kept per call, for metrics that depend on what a layer returned.
_KEEP = {
    "model.solve_quartic_real_roots",
    "model.stationary_states",
    "model.continue_branch",
    "echo.evolve_nonlinear",
}


class Tracer:
    """Collects (id, parent, name, start, end) spans; id 0 is the root."""

    def __init__(self):
        self.names: list[str] = []
        self.kept: dict[str, list] = {}
        self._buf = array("d")
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        stack, next_id, record = self._stack, self._ids.__next__, self._buf.extend
        clock = time.perf_counter
        kept = self.kept.setdefault(name, []) if name in _KEEP else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((sid, parent, idx, t0, t1))
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def spans(self) -> np.ndarray:
        """(n, 5) array of id, parent, name index, start, end."""
        return np.frombuffer(self._buf, dtype=float).reshape(-1, 5)

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) for every wrapped name."""
        return layer_times(self.spans(), self.names)


def layer_times(spans: np.ndarray, names: list[str]) -> dict[str, tuple[int, float, float]]:
    """Self time is a span's duration minus the durations of its direct children,
    which nest inside it because the traced code is single-threaded."""
    ids = spans[:, 0].astype(np.int64)
    parents = spans[:, 1].astype(np.int64)
    which = spans[:, 2].astype(np.int64)
    dur = spans[:, 4] - spans[:, 3]
    size = int(ids.max()) + 1 if len(ids) else 1
    covered = np.bincount(parents, weights=dur, minlength=size)
    own = dur - covered[ids]
    calls = np.bincount(which, minlength=len(names))
    total = np.bincount(which, weights=dur, minlength=len(names))
    self_s = np.bincount(which, weights=own, minlength=len(names))
    return {
        name: (int(calls[i]), float(total[i]), float(self_s[i])) for i, name in enumerate(names)
    }


def install(tracer: Tracer) -> None:
    """Route every public function of the traced modules through tracer."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"dimerphase.{short}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)

    schedule = importlib.import_module("dimerphase.echo").DriveSchedule
    schedule.params_at = tracer.wrap("echo.params_at", schedule.params_at)

    def swap(obj):
        return wrappers.get(obj, obj) if inspect.isfunction(obj) else obj

    for modname, mod in list(sys.modules.items()):
        if modname != "dimerphase" and not modname.startswith("dimerphase."):
            continue
        for name, obj in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            if isinstance(obj, dict):
                for key, val in obj.items():
                    obj[key] = swap(val)
            else:
                setattr(mod, name, swap(obj))


def _min_overlap(branch) -> float:
    amps = np.array([[s.amp1, s.amp2] for s in branch])
    ov = np.abs(np.sum(np.conj(amps[:-1]) * amps[1:], axis=1))
    return float(ov.min())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics named <module>.<function>.<what>, plus derived ratios."""
    out: dict[str, float] = {}
    for name, (calls, total, own) in tracer.layer_times().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = own

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    solves = tracer.kept.get("model.solve_quartic_real_roots", [])
    roots = sum(len(r) for r in solves)
    multiple = sum(1 for r in solves if any(mult >= 2 for _, mult in r))
    states = sum(len(f) for f in tracer.kept.get("model.stationary_states", []))
    out["model.multiple_root_share"] = share(multiple, len(solves))
    out["model.states_per_root"] = share(states, roots)

    branches = tracer.kept.get("model.continue_branch", [])
    points = sum(len(b) for b in branches)
    out["model.continue_branch.us_per_point"] = share(
        1e6 * out["model.continue_branch.total_s"], points
    )
    out["model.continue_branch.min_overlap"] = min(
        (_min_overlap(b) for b in branches if len(b) > 1), default=0.0
    )

    steps = sum(len(times) - 1 for times, _ in tracer.kept.get("echo.evolve_nonlinear", []))
    out["echo.evolve_nonlinear.us_per_step"] = share(
        1e6 * out["echo.evolve_nonlinear.total_s"], steps
    )
    out["echo.params_at.calls_per_step"] = share(out["echo.params_at.calls"], steps)
    out["echo.evolve_nonlinear.steps"] = steps
    return out
