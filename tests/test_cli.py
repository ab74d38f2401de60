"""End-to-end command-line checks, run through `python -m dimerphase`."""

import math
import re
import subprocess
import sys

import pytest

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


def test_spectrum_linear_model_band():
    proc = run_cli("spectrum", "--R", "0:2:5", "--v", "1", "--c", "0")
    _, _, rows = parse_csv(proc.stdout)
    for row in rows:
        R = float(row[0])
        energies = [float(x) for x in row[2:] if x != ""]
        half = 0.5 * math.sqrt(R * R + 1.0)
        assert energies == pytest.approx([-half, half], abs=1e-9)


def test_zero_energy_prints_without_sign():
    assert cli._fmt(-0.0) == "0"
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
    real = cli.nonlinearity_witness

    def fails_at_half_bias(params, tol):
        if params.R == 0.5:
            raise ArithmeticError("no stationary states")
        return real(params, tol)

    monkeypatch.setattr(cli, "nonlinearity_witness", fails_at_half_bias)
    assert cli.main(["witness", "--R", "0:1:3", "--v", "0.5"]) == 0
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
    _, cols, rows = parse_csv(proc.stdout)
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


@pytest.mark.parametrize("key", ["phi", "loop_points"])
def test_retired_settings_are_unknown(key, tmp_path):
    run_cli("triple", f"--{key.replace('_', '-')}", "16", expect=2)
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 16\n")
    assert key in run_cli("triple", "--config", str(cfg), expect=2).stderr


def test_unwritable_output_path_fails_cleanly(tmp_path):
    target = str(tmp_path / "no-such-dir" / "x.csv")
    proc = run_cli("triple", "--out", target, expect=1)
    assert target in proc.stderr
