"""Checks of each workload's outputs against the reference, counted per output.

The base of the count is stated per workload: grid points for grid; loops,
frame-loop quadratures and transport-sign entries for loop; traces for echo.
A repetition that raised or exited non-zero fails all of its outputs.

Known defect: the package drops valid stationary states whose rebuilt
amplitudes miss its absolute residual tolerance (ROADMAP item 3): the fully
polarized states of the v = 0 row (ten points of the canonical grid) and,
on other grids, self-trapped states with |m| near 0.98 a few 1e-4 from R = 0.  A grid point where every reported energy matches a reference state
and states are only missing still counts as a failure and is listed, but is
marked known, so it does not make a run incorrect.  Any other failure does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle


@dataclass
class Verdict:
    checked: int = 0
    failures: list[tuple[str, bool]] = field(default_factory=list)  # (what, known)
    max_err: float = 0.0

    def fail(self, what: str, known: bool = False) -> None:
        self.failures.append((what, known))

    def merge(self, other: "Verdict") -> None:
        self.checked += other.checked
        self.failures.extend(other.failures)
        self.max_err = max(self.max_err, other.max_err)

    @property
    def unexpected(self) -> int:
        return sum(1 for _, known in self.failures if not known)


def _csv_rows(path: str) -> list[list[str]]:
    lines = Path(path).read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    return [line.split(",") for line in body[1:]]


def _ran(outputs: dict | None, k: int) -> bool:
    return outputs is not None and outputs["exit_codes"][k] == 0


def _axis(spec) -> list[float]:
    start, stop, count = spec
    return np.linspace(float(start), float(stop), int(count)).tolist()


class GridReference:
    """Energy set and state count at every point of the spectrum scan."""

    def __init__(self, inputs: dict):
        self.points = [(R, v) for R in _axis(inputs["R_axis"]) for v in _axis(inputs["v_axis"])]
        R, v = zip(*self.points)
        states = oracle.stationary_states(R, v, inputs["c"])
        self.expected = [[e for e, _ in point] for point in states]
        self.outputs = len(self.points)

    def check(self, outputs: dict | None) -> Verdict:
        verdict = Verdict(checked=self.outputs)
        rows = _csv_rows(outputs["files"][0]) if _ran(outputs, 0) else []
        if len(rows) != self.outputs:
            for _ in range(self.outputs):
                verdict.fail(f"grid: run failed or wrote {len(rows)} rows")
            return verdict
        for (R, v), expected, row in zip(self.points, self.expected, rows):
            try:
                got = [float(x) for x in row[2:] if x]
            except ValueError:
                got = None
            at = row[:2] == ["%.12g" % R, "%.12g" % v]
            if got is None or not at or not oracle.energies_match(got, expected):
                verdict.fail(
                    f"grid R={R!r} v={v!r}: got {got} at {row[:2]}, expected {expected}",
                    known=at and got is not None and _only_missing(got, expected),
                )
        return verdict


def _only_missing(got: list[float], expected: list[float]) -> bool:
    """Every reported energy is a reference state's; some states are left out."""
    left = list(expected)
    for e in got:
        match = [x for x in left if abs(x - e) <= oracle.ENERGY_TOL * (1.0 + abs(x))]
        if not match:
            return False
        left.remove(match[0])
    return bool(left)


class LoopReference:
    """Discrete loop phases, frame-loop quadratures and the transport-sign table."""

    def __init__(self, inputs: dict):
        self.loops = inputs["loops"]
        # The loop follows the family's first state: lowest energy, then imbalance.
        self.phases = [
            oracle.loop_phase(oracle.stationary_states([R], [v], c)[0][0][1])
            for R, c, v in self.loops
        ]
        self.frames = inputs["frames"]
        self.quadratures = [oracle.quadrature_phases(*f) for f in self.frames]
        self.outputs = len(self.loops) + len(self.frames) + 6

    def check(self, outputs: dict | None) -> Verdict:
        verdict = Verdict(checked=self.outputs)
        if outputs is None:
            for _ in range(self.outputs):
                verdict.fail("loop: run failed")
            return verdict
        for loop, got, want in zip(self.loops, outputs["phases"], self.phases):
            err = oracle.phase_distance(got, want)
            verdict.max_err = max(verdict.max_err, err)
            if not err <= oracle.LOOP_PHASE_TOL:
                verdict.fail(f"loop (R, c, v)={loop}: phase {got!r}, expected {want!r}")
        for frame, got, want in zip(self.frames, outputs["quadratures"], self.quadratures):
            err = max(oracle.phase_distance(g, w) for g, w in zip(got, want))
            if not err <= oracle.QUADRATURE_TOL:
                verdict.fail(f"frame loop {frame}: phases {got}, expected {list(want)}")
        for name, want in oracle.TRANSPORT_SIGNS.items():
            for level, g, w in zip((-1, 0, 1), outputs["signs"][name], want):
                if g != w:
                    verdict.fail(f"transport sign {name} level {level}: {g}, expected {w}")
        return verdict


class EchoReference:
    """Every sample of every echo trace."""

    def __init__(self, inputs: dict):
        T, dt = inputs["T"], inputs["dt"]
        self.times = np.linspace(0.0, T, max(1, round(T / dt)) + 1)
        self.runs = inputs["runs"]
        self.traces = [
            oracle.echo_trace(R, c, v, theta, inputs["amp"], T, self.times)
            for R, c, v, theta in self.runs
        ]
        self.outputs = len(self.runs)

    def check(self, outputs: dict | None) -> Verdict:
        verdict = Verdict(checked=self.outputs)
        for k, (run, want) in enumerate(zip(self.runs, self.traces)):
            rows = _csv_rows(outputs["files"][k]) if _ran(outputs, k) else []
            if len(rows) != len(want):
                verdict.fail(f"echo {run}: run failed or wrote {len(rows)} rows")
                continue
            try:
                got = np.array(rows, dtype=float)
            except ValueError:
                verdict.fail(f"echo {run}: rows that are not two numbers")
                continue
            err = float(np.max(np.abs(got[:, 1] - want)))
            verdict.max_err = max(verdict.max_err, err)
            if np.max(np.abs(got[:, 0] - self.times)) > 1e-9 or not err <= oracle.TRACE_TOL:
                verdict.fail(f"echo (R, c, v, theta)={run}: max error {err:.3e}")
        return verdict


REFERENCES = {"grid": GridReference, "loop": LoopReference, "echo": EchoReference}

# Per-layer metric that carries each workload's worst deviation from the reference.
ERROR_METRICS = {"loop": "berry.loop_phase_max_err", "echo": "echo.trace_max_err"}
