"""Tests of the benchmark itself: its reference checks and its tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import tracing

sys.path.insert(0, str(run.SRC))

import dimerphase.cli  # noqa: E402

SMALL = {
    "grid": {"argv": ["spectrum", "--R=-1:1:5", "--v", "0:1:5", "--c", "1"]},
    "loop": {
        "loops": [[0.0, 2.0, 1.0], [0.3, 2.0, 0.5]],
        "loop_points": 64,
        "frames": [["perturbative", 1.0, 0.3], ["unit_overlap", 0.5, 1.0]],
        "frame_points": 64,
    },
    "echo": {"argvs": [["echo", "--R", "0", "--v", "1", "--c", "1", "--T", "1", "--dt", "0.01"]]},
}


def _edit(path: Path, row: int, col: int, change) -> None:
    """Replace one CSV cell of a data row by change(cell)."""
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[body[row]].split(",")
    cells[col] = change(cells[col])
    lines[body[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _nudge(cell: str) -> str:
    return "%.12g" % (float(cell) + 1e-6)


def test_grid_reference_rejects_energy_nudged_by_1e_6(tmp_path):
    grid = {"R_axis": [-1.0, 1.0, 5], "v_axis": [0.25, 1.0, 4], "c": 1.3}
    out = tmp_path / "grid.csv"
    argv = ["spectrum", "--R=-1:1:5", "--v", "0.25:1:4", "--c", "1.3", "--out", str(out)]
    assert dimerphase.cli.main(argv) == 0
    reference = checks.GridReference(grid)
    outputs = {"exit_codes": [0], "files": [str(out)]}
    clean = reference.check(outputs)
    assert (clean.checked, clean.failures) == (20, [])

    _edit(out, row=7, col=3, change=_nudge)
    nudged = reference.check(outputs)
    assert len(nudged.failures) == 1 and nudged.unexpected == 1


def test_grid_reference_marks_dropped_states_as_known_defect(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["spectrum", "--R=-2:2:101", "--v", "0:2:2", "--c", "1", "--out", str(out)]
    assert dimerphase.cli.main(argv) == 0
    reference = checks.GridReference({"R_axis": [-2.0, 2.0, 101], "v_axis": [0.0, 2.0, 2], "c": 1.0})
    verdict = reference.check({"exit_codes": [0], "files": [str(out)]})
    assert len(verdict.failures) == 10 and verdict.unexpected == 0
    assert all("v=0.0:" in what for what, _ in verdict.failures)

    # Off the v = 0 row: the m = -0.9992 self-trapped state is dropped.
    R, c = 0.0013683897444756177, 1.0141692229906407
    argv = ["spectrum", f"--R={R!r}", "--v", "0.04", "--c", repr(c), "--out", str(out)]
    assert dimerphase.cli.main(argv) == 0
    reference = checks.GridReference({"R_axis": [R, R, 1], "v_axis": [0.04, 0.04, 1], "c": c})
    verdict = reference.check({"exit_codes": [0], "files": [str(out)]})
    assert len(verdict.failures) == 1 and verdict.unexpected == 0

    # A wrong energy next to the dropped state is not the known defect.
    _edit(out, row=0, col=4, change=_nudge)
    assert reference.check({"exit_codes": [0], "files": [str(out)]}).unexpected == 1


def test_echo_reference_rejects_sample_nudged_by_1e_6(tmp_path):
    echo = {"runs": [(0.0, 1.0, 0.5, 1.0)], "T": 2.0, "dt": 0.002, "amp": 1.0}
    out = tmp_path / "echo.csv"
    argv = ["echo", "--R", "0", "--v", "0.5", "--c", "1", "--theta", "1", "--T", "2",
            "--out", str(out)]
    assert dimerphase.cli.main(argv) == 0
    reference = checks.EchoReference(echo)
    outputs = {"exit_codes": [0], "files": [str(out)]}
    clean = reference.check(outputs)
    assert clean.failures == [] and clean.max_err < 1e-9

    _edit(out, row=57, col=1, change=_nudge)
    assert reference.check(outputs).unexpected == 1


def test_loop_reference_matches_closed_form_and_signs():
    loop = inputs.make_inputs("loop", 0)
    reference = checks.LoopReference(loop)
    assert reference.outputs == 12 + 5 + 6
    # criterion_03's closed form pi (1 - sqrt(1 - v^2/(4 E^2))) at R = 0, c = 2, v = 1.
    assert reference.phases[7] == pytest.approx(np.pi * (1 - np.sqrt(1 - 0.25)), abs=1e-12)


def test_seed_zero_is_canonical_and_other_seeds_move_loops():
    grid = inputs.make_inputs("grid", 0)
    assert grid["argv"] == ["spectrum", "--R=-2:2:101", "--v", "0:2:101", "--c", "1"]
    assert inputs.make_inputs("grid", 7) == grid
    canonical = inputs.make_inputs("loop", 0)["loops"]
    for (R0, c0, v0), (R, c, v) in zip(canonical, inputs.make_inputs("loop", 7)["loops"]):
        assert (R == 0.0, c == 0.0, c == v, c < v) == (R0 == 0.0, c0 == 0.0, c0 == v0, c0 < v0)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced repetitions of each small workload, in fresh interpreters."""
    runs = {}
    for workload, small in SMALL.items():
        out = tmp_path_factory.mktemp(workload)
        reports = []
        for k in range(2):
            request = {
                "workload": workload,
                "inputs": small,
                "src": str(run.SRC),
                "out_dir": str(out),
                "spans_path": str(out / f"spans-{k}.npz"),
                "trace": True,
            }
            report = run._spawn(request, out / "request.json")
            assert report is not None
            reports.append(report)
        runs[workload] = (out, reports)
    return runs


def test_traced_counts_repeat_exactly(traced_runs):
    for workload, (_, reports) in traced_runs.items():
        first, second = (r["layers"] for r in reports)
        counts = [k for k in first if k.endswith((".calls", ".steps"))]
        assert counts
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}, workload
    assert traced_runs["grid"][1][0]["layers"]["model.stationary_states.calls"] == 24
    assert traced_runs["echo"][1][0]["layers"]["echo.params_at.calls_per_step"] == 3.0


def test_every_child_span_lies_inside_its_parent(traced_runs):
    for workload, (out, _) in traced_runs.items():
        data = np.load(out / "spans-0.npz")
        spans = data["spans"]
        assert len(spans) > 0
        interval = {int(s[0]): (s[3], s[4]) for s in spans}
        nested = [s for s in spans if int(s[1]) != 0]
        assert nested, workload
        for sid, parent, _, t0, t1 in nested:
            p0, p1 = interval[int(parent)]
            assert p0 <= t0 <= t1 <= p1, (workload, sid)


def test_self_times_add_up_to_root_spans():
    spans = np.array(
        [
            [2, 1, 1, 1.0, 2.0],
            [3, 1, 1, 2.5, 3.0],
            [1, 0, 0, 0.0, 4.0],
            [4, 0, 0, 5.0, 6.0],
        ]
    )
    times = tracing.layer_times(spans, ["outer", "inner"])
    assert times["outer"] == (2, 5.0, 3.5)
    assert times["inner"] == (2, 1.5, 1.5)
