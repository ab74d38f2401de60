"""Workload inputs generated from the seed.

Seed 0 gives the canonical inputs: the ROADMAP's 101 x 101 spectrum scan at
c = 1, criterion_03's nine (c, v) coupling-phase loops at R = 0 plus three
loops with R != 0, and echo runs at the command-line defaults over four drive
angles from two base points.  Any other seed perturbs the loop parameters
and the drive angles, for hold-out checks.  Perturbations keep the amount
of work and the regimes the same: loops that sit exactly on the c = v
transition are scaled by one common factor so they stay on it, and the
others move by at most 10 %, which keeps v/c on its side of 1.

The grid is the canonical scan at every seed.  Which of its points the
package mis-solves (ROADMAP item 3) depends on the exact R, v and c values:
moving c and the R-axis endpoints gave 3 to 71 failing points a scan, some
off the v = 0 row, and moving the top of the v axis makes the R = 0 column
pass a few 1e-4 below c = v at some seeds, where a state is dropped as well.
A failure share that changed with the seed could not be compared between
sets of runs, so every grid run fails on the same ten v = 0 points.
"""

from __future__ import annotations

import math
import random

GRID_POINTS = 101
LOOP_POINTS = 1024
FRAME_POINTS = 1024


def _grid(rng: random.Random | None) -> dict:
    return {
        "argv": ["spectrum", "--R=-2:2:101", "--v", "0:2:101", "--c", "1"],
        "R_axis": [-2.0, 2.0, GRID_POINTS],
        "v_axis": [0.0, 2.0, GRID_POINTS],
        "c": 1.0,
    }


def _loop(rng: random.Random | None) -> dict:
    loops = [(0.0, c, v) for c in (0.0, 0.5, 2.0) for v in (0.5, 1.0, 2.0)]
    loops += [(0.5, 1.0, 0.7), (-0.8, 1.5, 0.6), (0.3, 2.0, 0.5)]
    if rng is not None:
        moved = []
        for R, c, v in loops:
            if c == v:
                f = rng.uniform(0.9, 1.1)
                c, v = c * f, v * f
            else:
                c, v = c * rng.uniform(0.9, 1.1), v * rng.uniform(0.9, 1.1)
            moved.append((R * rng.uniform(0.9, 1.1), c, v))
        loops = moved
    frames = [
        ("perturbative", math.pi / 3, 0.3),
        ("perturbative", 2.0, 0.7),
        ("small_overlap", math.pi / 3, 0.01),
        ("unit_overlap", math.pi / 6, 1.0),
        ("unit_overlap", 2.5, 1.0),
    ]
    return {
        "loops": loops,
        "loop_points": LOOP_POINTS,
        "frames": frames,
        "frame_points": FRAME_POINTS,
    }


def _echo(rng: random.Random | None) -> dict:
    # The command-line default base and criterion_07's fully degenerate one.
    bases = [(0.0, 1.0, 1.0), (0.0, 0.0, 0.0)]
    thetas = [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3]
    if rng is not None:
        thetas = [t + rng.uniform(-0.1, 0.1) for t in thetas]
    runs = [(R, c, v, t) for R, c, v in bases for t in thetas]
    argvs = [
        ["echo", "--R", repr(R), "--v", repr(v), "--c", repr(c), "--theta", repr(t)]
        for R, c, v, t in runs
    ]
    # Command-line defaults, stated here so the reference uses the same values.
    return {"argvs": argvs, "runs": runs, "T": 20.0, "dt": 0.002, "amp": 1.0}


_MAKERS = {"grid": _grid, "loop": _loop, "echo": _echo}


def make_inputs(workload: str, seed: int) -> dict:
    return _MAKERS[workload](None if seed == 0 else random.Random(seed))
