"""End-to-end command-line checks, run through `python -m dimerphase`."""

import dataclasses
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimerphase import cli


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "dimerphase", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return header, body[0].split(","), [l.split(",") for l in body[1:]]


# ---------------------------------------------------------------------------
# headers


def test_header_identifies_run():
    proc = run_cli("berry", "--R", "0", "--v", "2", "--c", "1")
    header, cols, rows = parse_csv(proc.stdout)
    assert header[0].startswith("# dimerphase ")
    assert header[1] == "# mode: berry"
    assert header[2].startswith("# config: ")
    assert "v=2" in header[2]
    assert re.fullmatch(r"# config-hash: [0-9a-f]{12}", header[3])
    assert cols == ["R", "v", "gamma_over_pi"]


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_above_critical_has_two_levels_everywhere():
    proc = run_cli("spectrum", "--R", "0:2:5", "--v", "2", "--c", "1")
    _, cols, rows = parse_csv(proc.stdout)
    assert cols == ["R", "v", "E1", "E2", "E3", "E4"]
    assert len(rows) == 5
    for row in rows:
        assert row[2] != "" and row[3] != ""
        assert row[4] == "" and row[5] == ""


def test_spectrum_below_critical_has_four_levels():
    proc = run_cli("spectrum", "--R", "0", "--v", "0.5", "--c", "1")
    _, _, rows = parse_csv(proc.stdout)
    (row,) = rows
    energies = [float(x) for x in row[2:] if x != ""]
    assert energies == pytest.approx([-0.5, -0.5, -0.25, 0.25], abs=1e-9)


def test_spectrum_at_large_bias_keeps_both_levels(capsys):
    # At |R| >= 1e7 the residual of a true state exceeds 1e-9 through rounding
    # alone; the scaled residual test keeps both states.
    assert cli.main(["spectrum", "--R", "1e7:1e9:3", "--v", "1", "--c", "1"]) == 0
    header, _, rows = parse_csv(capsys.readouterr().out)
    assert not any(h.startswith("# skipped:") for h in header)
    assert [len([x for x in row[2:] if x]) for row in rows] == [2, 2, 2]


def test_spectrum_linear_model_band():
    proc = run_cli("spectrum", "--R", "0:2:5", "--v", "1", "--c", "0")
    _, _, rows = parse_csv(proc.stdout)
    for row in rows:
        R = float(row[0])
        energies = [float(x) for x in row[2:] if x != ""]
        half = 0.5 * math.sqrt(R * R + 1.0)
        assert energies == pytest.approx([-half, half], abs=1e-9)


def test_zero_energy_prints_without_sign():
    assert list(cli._cells(np.array([-0.0, math.nan]))) == ["0", ""]
    proc = run_cli("spectrum", "--R=-1", "--v", "0", "--c", "1")
    assert proc.stdout.splitlines()[-1] == "-1,0,-1,0,,"


def test_negative_axis_is_read_with_or_without_equals_sign():
    spaced = run_cli("spectrum", "--R", "-2:2:5", "--v", "0.5")
    joined = run_cli("spectrum", "--R=-2:2:5", "--v", "0.5")
    assert spaced.stdout == joined.stdout
    _, _, rows = parse_csv(spaced.stdout)
    assert [row[0] for row in rows] == ["-2", "-1", "0", "1", "2"]


def test_spectrum_fully_degenerate_point_is_blank():
    proc = run_cli("spectrum", "--R", "0", "--v", "0", "--c", "1")
    _, _, rows = parse_csv(proc.stdout)
    (row,) = rows
    assert row[2:] == ["", "", "", ""]


@pytest.mark.parametrize("mode", ["berry", "witness"])
def test_fully_degenerate_point_is_blank_in_every_grid_mode(mode):
    proc = run_cli(mode, "--R", "0:1:3", "--v", "0:1:3", "--c", "1")
    header, _, rows = parse_csv(proc.stdout)
    assert rows[0] == ["0", "0", ""]
    assert all(row[2] != "" for row in rows[1:])
    assert not any(h.startswith("# skipped:") for h in header)


def test_failing_point_is_skipped_and_counted(monkeypatch, capsys):
    # The three points are solved in one batch; the kernel reports the middle
    # one as failing its state-count check.
    real = cli.stationary_arrays

    def fails_at_half_bias(R, v, phi, c):
        states = real(R, v, phi, c)
        return dataclasses.replace(states, failed=states.failed | (R == 0.5))

    monkeypatch.setattr(cli, "stationary_arrays", fails_at_half_bias)
    assert cli.main(["witness", "--R", "0:1:3", "--v", "0.5"]) == 0
    header, _, rows = parse_csv(capsys.readouterr().out)
    assert "# skipped: 1" in header
    assert rows[1] == ["0.5", "0.5", ""]
    assert rows[0][2] != "" and rows[2][2] != ""


def test_raising_berry_cell_is_skipped_and_counted(monkeypatch, capsys):
    # The kernel gives the middle point a lowest state of energy 0.1, which
    # breaks 4 E^2 >= v^2 at v = 0.5: no loop phase, a blank cell.
    real = cli.stationary_arrays

    def breaks_bound_at_half_coupling(R, v, phi, c):
        states = real(R, v, phi, c)
        energy = states.energy.copy()
        energy[v == 0.5, 0] = 0.1
        return dataclasses.replace(states, energy=energy)

    monkeypatch.setattr(cli, "stationary_arrays", breaks_bound_at_half_coupling)
    assert cli.main(["berry", "--R", "0.5", "--v", "0:1:3"]) == 0
    header, _, rows = parse_csv(capsys.readouterr().out)
    assert "# skipped: 1" in header
    assert rows[1] == ["0.5", "0.5", ""]
    assert rows[0][2] != "" and rows[2][2] != ""


# ---------------------------------------------------------------------------
# berry


def test_berry_half_filled_value():
    proc = run_cli("berry", "--R", "0", "--v", "2", "--c", "1")
    _, _, rows = parse_csv(proc.stdout)
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)


def test_berry_degenerate_branch_value():
    proc = run_cli("berry", "--R", "0", "--v", "0.5", "--c", "1")
    _, _, rows = parse_csv(proc.stdout)
    assert float(rows[0][2]) == pytest.approx(0.133974596216, abs=1e-9)


def test_berry_vanishing_coupling():
    proc = run_cli("berry", "--R", "1", "--v", "0", "--c", "0")
    _, _, rows = parse_csv(proc.stdout)
    assert float(rows[0][2]) == 0.0


# ---------------------------------------------------------------------------
# witness


def test_witness_below_critical_tracks_ratio():
    proc = run_cli("witness", "--R", "0", "--v", "0.25:0.75:3", "--c", "1")
    _, cols, rows = parse_csv(proc.stdout)
    assert cols == ["v_over_c", "R", "witness"]
    for row in rows:
        assert float(row[2]) == pytest.approx(float(row[0]), abs=1e-9)


def test_witness_above_critical_vanishes():
    proc = run_cli("witness", "--R", "0", "--v", "1.25:1.75:3", "--c", "1")
    _, _, rows = parse_csv(proc.stdout)
    for row in rows:
        assert float(row[2]) == pytest.approx(0.0, abs=1e-9)


def test_witness_linear_model_blank_ratio():
    proc = run_cli("witness", "--R", "0", "--v", "1", "--c", "0")
    _, _, rows = parse_csv(proc.stdout)
    (row,) = rows
    assert row[0] == ""
    assert float(row[2]) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# echo


def test_echo_summary_fields():
    proc = run_cli(
        "echo", "--R", "0", "--v", "0.5", "--c", "1", "--T", "2", "--dt", "0.01"
    )
    header, cols, rows = parse_csv(proc.stdout)
    assert cols == ["t", "L"]
    (summary,) = [h for h in header if h.startswith("# summary:")]
    fields = dict(kv.split("=") for kv in summary.split(" ")[2:])
    assert float(fields["s"]) == pytest.approx(0.5, abs=1e-9)
    assert float(fields["L_adiabatic"]) == pytest.approx(0.75, abs=1e-9)
    assert 0.0 <= float(fields["L_mean"]) <= 1.0
    assert len(rows) == 201
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_echo_zero_amplitude_keeps_unit_echo():
    proc = run_cli(
        "echo", "--R", "0", "--v", "1", "--c", "0", "--amp", "0", "--T", "1",
        "--dt", "0.01",
    )
    _, _, rows = parse_csv(proc.stdout)
    assert len(rows) == 101
    for row in rows:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-10)


def test_echo_step_count_too_large_to_store_is_an_error(capsys):
    # An error that names the step count, not numpy's "Maximum allowed size exceeded".
    assert cli.main(["echo", "--dt", "1e-300", "--T", "1"]) == 1
    err = capsys.readouterr().err
    assert "dt=1e-300" in err and "T=1.0" in err and "1e+300 steps" in err


def test_echo_equatorial_mean_near_half():
    proc = run_cli("echo", "--R", "0", "--v", "0", "--c", "0", "--T", "20")
    header, _, _ = parse_csv(proc.stdout)
    (summary,) = [h for h in header if h.startswith("# summary:")]
    fields = dict(kv.split("=") for kv in summary.split(" ")[2:])
    assert float(fields["L_mean"]) == pytest.approx(0.5, abs=0.05)
    assert float(fields["L_adiabatic"]) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# triple


def test_triple_sign_table():
    proc = run_cli("triple")
    header, cols, rows = parse_csv(proc.stdout)
    assert header[2] == "# config:"
    assert cols == ["loop", "psi_n_minus_1", "psi_n", "psi_n_plus_1"]
    assert rows[0] == ["phi", "+1", "+1", "+1"]
    assert rows[1] == ["theta", "-1", "+1", "-1"]


# ---------------------------------------------------------------------------
# config files and output


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# comment line\nv = 0.5\nc = 1\n\nR = 0\n")
    flagged = run_cli("berry", "--config", str(cfg), "--v", "2")
    _, _, rows = parse_csv(flagged.stdout)
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
    plain = run_cli("berry", "--config", str(cfg))
    _, _, rows = parse_csv(plain.stdout)
    assert float(rows[0][2]) == pytest.approx(0.133974596216, abs=1e-9)


def test_config_file_can_set_output_path(tmp_path):
    out = tmp_path / "scan.csv"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"out = {out}\n")
    proc = run_cli("berry", "--config", str(cfg))
    assert proc.stdout == ""
    assert out.read_text().startswith("# dimerphase ")


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "table.csv"
    run_cli("triple", "--out", str(out))
    _, _, rows = parse_csv(out.read_text())
    assert rows[0][0] == "phi"


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--R", "0:2:5", "--v", "1.3", "--c", "0.8"),
        ("berry", "--R", "0", "--v", "0.5:1.5:3", "--c", "2"),
        ("witness", "--R", "0", "--v", "0.5", "--c", "1"),
        ("echo", "--R", "0", "--v", "0.5", "--c", "1", "--T", "1", "--dt", "0.01"),
        ("triple",),
    ],
)
def test_reruns_are_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout


def _config_hash(*args):
    return cli.resolve_config(cli.build_parser().parse_args(list(args))).config_hash


def test_equal_values_hash_alike_whatever_their_spelling(capsys):
    hashes = {_config_hash("spectrum", "--R", R, "--v", "0.5") for R in ("1", "1.0", "1e0")}
    assert len(hashes) == 1
    assert _config_hash("spectrum", "--R", "0:1:3") == _config_hash("spectrum", "--R", "0.0:1e0:3")
    # The `# config:` line keeps the spelling; only the hash reads values.
    assert cli.main(["spectrum", "--R", "1e0", "--v", "0.5"]) == 0
    header, _, _ = parse_csv(capsys.readouterr().out)
    assert "R=1e0" in header[2]
    assert header[3] == f"# config-hash: {hashes.pop()}"


def test_different_values_hash_differently():
    assert _config_hash("spectrum", "--R", "1") != _config_hash("spectrum", "--R", "1.5")
    assert _config_hash("spectrum", "--R", "0:1:3") != _config_hash("spectrum", "--R", "0:1:4")
    assert _config_hash("spectrum", "--R", "0:1:3") != _config_hash("spectrum", "--R", "0:2:3")
    assert _config_hash("spectrum") != _config_hash("berry")


def _render_per_cell(cfg, header, comments, rows):
    """The CSV writer as a loop over the cells of each row, kept as a reference."""
    lines = [
        f"# dimerphase {cli.__version__}",
        f"# mode: {cfg.mode}",
        f"# config: {cfg.summary}",
        f"# config-hash: {cfg.config_hash}",
    ]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, str):
                cells.append(x)
            elif math.isnan(x):
                cells.append("")
            else:
                cells.append("%.12g" % (x + 0.0))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_ODD_FLOATS = [
    0.0, -0.0, 1.0, -2.5, 1.0 / 3.0, math.nan, math.inf, -math.inf,
    5e-324, -1e-300, 2.2250738585072014e-308, 1.7976931348623157e308, 123456789012345.0,
]


_TEXTS = ["", "+1", "-1", "phi", "theta"]


def test_column_writer_matches_per_cell_writer():
    cfg = cli.resolve_config(cli.build_parser().parse_args(["spectrum"]))
    n = len(_ODD_FLOATS)
    texts = (_TEXTS * n)[:n]
    rows = list(zip(_ODD_FLOATS, texts, [math.nan] * n))
    columns = [np.array(_ODD_FLOATS), texts, np.full(n, np.nan)]
    expected = _render_per_cell(cfg, ("a", "b", "c"), ["skipped: 1"], rows)
    assert cli._render(cfg, ("a", "b", "c"), ["skipped: 1"], columns) == expected


@settings(derandomize=True, database=None, max_examples=200)
@given(
    st.lists(
        st.tuples(st.floats(), st.floats(width=32), st.sampled_from(_TEXTS)),
        min_size=1,
        max_size=20,
    )
)
def test_column_writer_matches_per_cell_writer_on_any_floats(rows):
    cfg = cli.resolve_config(cli.build_parser().parse_args(["echo"]))
    numbers, others, texts = zip(*rows)
    columns = [np.array(numbers), np.array(others), list(texts)]
    text = cli._render(cfg, ("t", "x", "y"), [], columns)
    assert text == _render_per_cell(cfg, ("t", "x", "y"), [], rows)


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_mode_is_usage_error():
    run_cli("bogus", expect=2)


def test_malformed_axis_is_usage_error():
    proc = run_cli("spectrum", "--R", "0:2", expect=2)
    assert "axis" in proc.stderr


def test_axis_rejected_for_echo():
    proc = run_cli("echo", "--v", "0:1:5", expect=2)
    assert "fixed value" in proc.stderr


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    proc = run_cli("berry", "--config", str(cfg), expect=2)
    assert "bogus" in proc.stderr


def test_missing_config_file_is_usage_error(tmp_path):
    proc = run_cli("berry", "--config", str(tmp_path / "absent.cfg"), expect=2)
    assert "config" in proc.stderr


def test_out_of_range_flags_are_usage_errors():
    run_cli("echo", "--theta", "4", expect=2)
    run_cli("echo", "--amp", "-1", expect=2)
    for args, flag in [
        (("spectrum", "--v=-1:1:3"), "--v"),
        (("spectrum", "--c", "-1"), "--c"),
        (("echo", "--c", "-1"), "--c"),
    ]:
        assert flag in run_cli(*args, expect=2).stderr


@pytest.mark.parametrize(
    "args, flag",
    [
        (("spectrum", "--v", "nan"), "--v"),
        (("spectrum", "--v=0:nan:3"), "--v"),
        (("berry", "--c", "inf"), "--c"),
        (("echo", "--c", "nan"), "--c"),
        (("echo", "--dt", "nan"), "--dt"),
    ],
)
def test_non_finite_values_are_usage_errors(args, flag):
    assert flag in run_cli(*args, expect=2).stderr


@pytest.mark.parametrize(
    "mode, keys",
    [
        ("spectrum", ["R", "c", "v"]),
        ("berry", ["R", "c", "v"]),
        ("witness", ["R", "c", "v"]),
        ("echo", ["R", "T", "amp", "c", "dt", "theta", "v"]),
        ("triple", []),
    ],
)
def test_each_mode_takes_only_the_settings_it_reads(mode, keys, capsys):
    cfg = cli.resolve_config(cli.build_parser().parse_args([mode]))
    assert [kv.split("=")[0] for kv in cfg.summary.split()] == keys
    for key in {"R", "v", "c", "dt", "T", "theta", "amp"} - set(keys):
        with pytest.raises(SystemExit) as exc:
            cli.main([mode, f"--{key}", "1"])
        assert exc.value.code == 2 and f"--{key}" in capsys.readouterr().err


def test_setting_a_mode_does_not_read_is_a_usage_error(tmp_path):
    assert "--dt" in run_cli("spectrum", "--dt", "0.1", expect=2).stderr
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("R = 0.5\ntheta = 1\n")
    assert "theta" in run_cli("spectrum", "--config", str(cfg), expect=2).stderr


def test_spectrum_config_line_holds_only_its_settings(capsys):
    assert cli.main(["spectrum", "--R", "0.5"]) == 0
    header, _, _ = parse_csv(capsys.readouterr().out)
    assert header[2] == "# config: R=0.5 c=1 v=1"


@pytest.mark.parametrize("key", ["phi", "loop_points", "tol"])
def test_retired_settings_are_unknown(key, tmp_path):
    run_cli("triple", f"--{key.replace('_', '-')}", "16", expect=2)
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 16\n")
    assert key in run_cli("triple", "--config", str(cfg), expect=2).stderr


def test_unwritable_output_path_fails_cleanly(tmp_path):
    target = str(tmp_path / "no-such-dir" / "x.csv")
    proc = run_cli("triple", "--out", target, expect=1)
    assert target in proc.stderr


def test_axis_with_points_that_overflow_is_usage_error():
    # Finite endpoints whose linspace steps overflow to inf and nan.
    proc = run_cli("spectrum", "--R=1e308:-1e308:3", expect=2)
    assert "--R" in proc.stderr and "Warning" not in proc.stderr
