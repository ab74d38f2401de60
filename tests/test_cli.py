"""End-to-end command-line checks, run through `python -m dimerphase`."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.parametrize("mode", ["witness", "berry", "spectrum"])
def test_failing_point_is_skipped_and_counted(mode, monkeypatch, capsys):
    # The three points are solved in one batch; the kernel reports the middle
    # one as failing its state-count check.
    real = cli.stationary_arrays

    def fails_at_half_bias(R, v, phi, c):
        states = real(R, v, phi, c)
        return dataclasses.replace(states, failed=states.failed | (R == 0.5))

    monkeypatch.setattr(cli, "stationary_arrays", fails_at_half_bias)
    assert cli.main([mode, "--R", "0:1:3", "--v", "0.5"]) == 0
    header, _, rows = parse_csv(capsys.readouterr().out)
    assert "# skipped: 1" in header
    # Every value cell of the failed row is blank: one in berry and witness, four in spectrum.
    assert rows[1][:2] == ["0.5", "0.5"] and set(rows[1][2:]) == {""}
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


@pytest.mark.parametrize("k", [-560, -540, 500, 530])
def test_berry_grid_is_scale_free(k, capsys):
    # Scaling R, v and c by 2^k leaves each state's root t, so its amplitudes,
    # as they are: every cell is the scale-1 cell, also where v^2 would
    # underflow (k = -560, -540) or overflow (530).
    def cells(scale):
        R0, R1, v1, c = (repr(math.ldexp(x, scale)) for x in (-2.0, 2.0, 2.0, 1.0))
        assert cli.main(["berry", f"--R={R0}:{R1}:41", "--v", f"0:{v1}:41", "--c", c]) == 0
        header, _, rows = parse_csv(capsys.readouterr().out)
        return [h for h in header if h.startswith("# skipped")], [row[2] for row in rows]

    assert cells(k) == cells(0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.floats(-150.0, math.log10(0.5)).map(lambda e: 10.0**e))
def test_berry_cell_at_small_coupling_keeps_its_relative_digits(v):
    # At R = 0 and c = 1 the lowest state is the lower self-trapped one, with
    # 1 + m = 1 - sqrt(1 - v^2) = v^2 / (1 + sqrt(1 - v^2)), which -> 0 as v -> 0.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["berry", "--R", "0", "--v", repr(v), "--c", "1"]) == 0
    _, _, rows = parse_csv(out.getvalue())
    want = v * v / (1.0 + math.sqrt(1.0 - v * v))
    assert float(rows[0][2]) == pytest.approx(want, rel=1e-11, abs=0.0)


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


def test_witness_reads_a_tiny_coupling_ratio():
    # The inner roots t ~ v/2 square below the smallest float: the states are
    # built from min(|t|, 1/|t|), and the witness keeps every digit of v/c.
    proc = run_cli("witness", "--R", "0", "--v", "1e-200", "--c", "1")
    assert proc.stdout.endswith(",1e-200\n")


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
    # -0 and 0 run alike, so they hash alike, as a scalar and at either end of an axis.
    for key in ("R", "c", "v"):
        assert _config_hash("spectrum", f"--{key}=-0") == _config_hash("spectrum", f"--{key}=0")
    for key in ("theta", "amp"):
        assert _config_hash("echo", f"--{key}=-0") == _config_hash("echo", f"--{key}=0")
    assert _config_hash("spectrum", "--R=-0:-0:2") == _config_hash("spectrum", "--R", "0:0:2")
    assert _config_hash("spectrum", "--R=-0:1:3") == _config_hash("spectrum", "--R", "0:1:3")
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=-0.0, allow_infinity=False)  # -0 passes x >= 0
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_SETTINGS = {"R": _FINITE, "v": _NONNEGATIVE, "c": _NONNEGATIVE}
_ECHO_SETTINGS = {
    **_SETTINGS,
    "dt": _POSITIVE,
    "T": _POSITIVE,
    "theta": st.floats(min_value=0.0, max_value=math.pi),
    "amp": _NONNEGATIVE,
}


@settings(derandomize=True, database=None, max_examples=200)
@given(
    st.tuples(st.sampled_from(["spectrum", "berry", "witness"]), st.fixed_dictionaries(_SETTINGS))
    | st.tuples(st.just("echo"), st.fixed_dictionaries(_ECHO_SETTINGS))
)
def test_config_hash_is_sha256_of_the_canonical_text(run):
    # Each setting as the repr of its float, -0 as 0, in key order after the mode.
    mode, values = run
    text = "\n".join([f"mode={mode}"] + [f"{k}={values[k] + 0.0!r}" for k in sorted(values)])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    assert _config_hash(mode, *(f"--{k}={x!r}" for k, x in values.items())) == digest


# A fresh interpreter, as a run starts: hashlib would load OpenSSL's libcrypto
# (about 3.6 MiB of peak memory) for one short digest.
_NO_OPENSSL_RUN = (
    "import sys, dimerphase.cli as cli; "
    "cli.main(['spectrum', '--R', '0:1:3', '--v', '0.5']); "
    "assert not {'hashlib', '_hashlib'} & set(sys.modules)"
)


def test_a_run_leaves_hashlib_unloaded():
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_OPENSSL_RUN],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "# config-hash: " in proc.stdout


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
    assert "".join(cli._render(cfg, ("a", "b", "c"), ["skipped: 1"], columns)) == expected


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
    text = "".join(cli._render(cfg, ("t", "x", "y"), [], columns))
    assert text == _render_per_cell(cfg, ("t", "x", "y"), [], rows)


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
def test_column_writer_matches_per_cell_writer_across_row_blocks(n):
    # _render writes cli._BLOCK = 1024 rows per chunk: one row short of a
    # block, a whole block, one row past it, and two blocks and a row.
    cfg = cli.resolve_config(cli.build_parser().parse_args(["spectrum"]))
    numbers = np.array((_ODD_FLOATS * (n // len(_ODD_FLOATS) + 1))[:n])
    blanks = np.where(np.arange(n) % 7 == 3, np.nan, np.arange(n) / 3.0)
    texts = (_TEXTS * n)[:n]
    rows = list(zip(numbers.tolist(), blanks.tolist(), texts))
    text = "".join(cli._render(cfg, ("a", "b", "c"), ["skipped: 2"], [numbers, blanks, texts]))
    assert text == _render_per_cell(cfg, ("a", "b", "c"), ["skipped: 2"], rows)


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


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as behind `| head -3`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_fails_cleanly_and_names_stdout(capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert cli.main(["echo", "--T", "1", "--dt", "0.01"]) == 1
    assert capsys.readouterr().err == "dimerphase: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("flag, count", [("R", 10**15), ("v", 10**20)])
def test_axis_too_long_to_store_is_usage_error(flag, count, capsys):
    # 10**15 points would take 7.1 PiB, so their allocation fails at once;
    # numpy refuses 10**20 before it allocates.
    assert cli.main(["spectrum", f"--{flag}", f"0:1:{count}"]) == 2
    assert capsys.readouterr().err == (
        f"dimerphase: --{flag}: an axis of {count} points is too long to store\n"
    )


def test_axis_with_points_that_overflow_is_usage_error():
    # Finite endpoints whose linspace steps overflow to inf and nan.
    proc = run_cli("spectrum", "--R=1e308:-1e308:3", expect=2)
    assert "--R" in proc.stderr and "Warning" not in proc.stderr


_EXTREMES = ["0", "-0", "5e-324", "1e-300", "0.5", "1", "1e300", "1e308", "1.7e308"]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    mode=st.sampled_from(["spectrum", "berry", "witness", "echo"]),
    R=st.sampled_from(_EXTREMES + ["-1e308"]),
    v=st.sampled_from(_EXTREMES),
    c=st.sampled_from(_EXTREMES),
)
@example(mode="echo", R="1e308", v="0", c="1e308")
def test_main_never_raises_at_extreme_settings(mode, R, v, c):
    # From the bottom to the top of the float range a run writes its CSV or
    # reports its failure: no point may raise out of main.
    args = [mode, f"--R={R}", f"--v={v}", f"--c={c}"]
    args += ["--T", "0.02", "--dt", "0.01"] if mode == "echo" else []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(args) in (0, 1)
