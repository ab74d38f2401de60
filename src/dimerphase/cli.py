"""Command-line scans over the dimer model, CSV out.

Subcommands: spectrum, berry, witness, echo, triple.  --R and --v accept
either a fixed value ("1.5") or an axis spec ("start:stop:count"); everything
else is fixed per run.  A flat key = value config file can hold any flag;
explicit flags win.  Output is deterministic: identical configuration,
identical bytes.

Exit codes: 0 success, 1 computation or I/O failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import sys
from dataclasses import make_dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .berry import berry_phase_closed_form
from .echo import (
    circular_drive,
    loschmidt_adiabatic,
    loschmidt_dynamical,
    nonlinearity_witness,
    trace_mean,
)
from .errors import DimerPhaseError, ModelDegenerateError
from .model import Eigenstate, ModelParams, _has_states, stationary_states
from .triple import transport_sign

MODES = ("spectrum", "berry", "witness", "echo", "triple")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _parse_axis(text: str, name: str):
    if ":" not in text:
        return _parse_float(text, name)
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name}: axis spec must be start:stop:count")
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--{name}: bad axis spec {text!r}") from exc
    if count < 2:
        raise UsageError(f"--{name}: an axis needs at least 2 points")
    return np.linspace(_parse_float(parts[0], name), _parse_float(parts[1], name), count)


def _parse_float(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"--{name}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"--{name}: expected a finite number, got {text!r}")
    return value


# Every run setting: key -> (default, parser, help).  Each key is a --flag
# (underscores spelled as dashes), a config-file key and a ScanConfig field.
_KEYS = {
    "R": ("0", _parse_axis, "bias: value or start:stop:count axis"),
    "v": ("1", _parse_axis, "coupling: value or start:stop:count axis"),
    "c": ("1", _parse_float, "nonlinearity strength"),
    "dt": ("0.002", _parse_float, "integrator time step"),
    "T": ("20", _parse_float, "drive duration"),
    "tol": ("1e-9", _parse_float, "validation tolerance"),
    "theta": (repr(0.5 * math.pi), _parse_float, "drive polar angle (echo)"),
    "amp": ("1", _parse_float, "drive amplitude (echo)"),
}

_CONFIG_KEYS = set(_KEYS) | {"out"}

# R and v hold a float or a 1-D ndarray axis; out is an optional path.
ScanConfig = make_dataclass(
    "ScanConfig",
    ["mode", *_KEYS, "out", "config_hash", "summary"],
    frozen=True,
    namespace={"__module__": __name__},
)


def _flag(key: str) -> str:
    return key.replace("_", "-")


_VALUE_FLAGS = {f"--{_flag(key)}" for key in _KEYS}


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Write "--R -2:2:5" as "--R=-2:2:5" for every setting flag.

    argparse takes a value that starts with "-" for an option unless it is a
    plain negative number, so "-2:2:5" or "-1e-3" would leave the flag
    before it without its argument.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and re.match(r"-[0-9.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimerphase",
        description="Scans over a nonlinear two-mode model: spectra, phases, witnesses, echoes.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"run a {mode} scan")
        sp.add_argument("--out", help="output CSV path (default: stdout)")
        sp.add_argument("--config", help="flat key = value config file")
        for key, (_, _, help_text) in _KEYS.items():
            sp.add_argument(f"--{_flag(key)}", help=help_text)
    return parser


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def resolve_config(args: argparse.Namespace) -> ScanConfig:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = load_config_file(args.config)

    def pick(key: str) -> str:
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return _KEYS[key][0]

    raw = {key: pick(key) for key in _KEYS}
    out = args.out if args.out is not None else file_values.get("out")
    val = {key: parse(raw[key], _flag(key)) for key, (_, parse, _) in _KEYS.items()}

    if val["tol"] <= 0 or val["dt"] <= 0 or val["T"] <= 0:
        raise UsageError("tol, dt, and T must all be positive")
    if not 0.0 <= val["theta"] <= math.pi:
        raise UsageError("--theta: must lie in [0, pi]")
    if val["amp"] < 0.0:
        raise UsageError("--amp: must be >= 0")
    if np.any(val["v"] < 0.0):
        raise UsageError("--v: coupling must be >= 0")
    if val["c"] < 0.0:
        raise UsageError("--c: nonlinearity must be >= 0")
    if args.mode in ("echo", "triple"):
        for name in ("R", "v"):
            if isinstance(val[name], np.ndarray):
                raise UsageError(f"--{name}: {args.mode} takes a fixed value, not an axis")

    settings = [f"{k}={raw[k]}" for k in sorted(raw)]
    canonical = "\n".join([f"mode={args.mode}"] + settings)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    summary = " ".join(settings)
    return ScanConfig(mode=args.mode, **val, out=out, config_hash=digest, summary=summary)


def _fmt(x: float) -> str:
    # Adding 0.0 turns -0.0 into 0.0, so a zero prints as "0" whatever its sign.
    return "%.12g" % (x + 0.0)


def _axis_values(spec) -> list[float]:
    if isinstance(spec, np.ndarray):
        return [float(x) for x in spec]
    return [float(spec)]


# Errors of a computation that cannot evaluate a point or a run: main maps
# them to exit code 1, a grid scan to a skipped point.
_COMPUTE_ERRORS = (DimerPhaseError, ValueError, ArithmeticError)

# Grid modes and their CSV columns; the first two hold the point's coordinates.
_GRID_COLUMNS = {
    "spectrum": ("R", "v", "E1", "E2", "E3", "E4"),
    "berry": ("R", "v", "gamma_over_pi"),
    "witness": ("v_over_c", "R", "witness"),
}


def _point_cells(mode: str, params: ModelParams, tol: float) -> tuple:
    if mode == "spectrum":
        energies = list(stationary_states(params, tol).energies)
        return tuple((energies + [None] * 4)[:4])
    if mode == "berry":
        states = stationary_states(params, tol).states
        if not states:
            raise ModelDegenerateError(f"no stationary state at {params}")
        lowest = states[0]
        gamma = berry_phase_closed_form(params.v, lowest.energy, lowest.imbalance)
        return (gamma / math.pi,)
    return (nonlinearity_witness(params, tol).witness,)


# Cell value of a point whose computation raised: it renders blank, like the
# None cells of the fully degenerate origin, but counts as skipped.
_SKIPPED = ""


def _eval_point(cfg: ScanConfig, R: float, v: float) -> tuple:
    """One grid point.

    The fully degenerate origin has None cells by design; a point whose
    computation raises gets _SKIPPED cells.
    """
    mode, c = cfg.mode, cfg.c
    coords = (v / c if c > 0 else None, R) if mode == "witness" else (R, v)
    params = ModelParams(R=R, c=c, v=v)
    blank = None
    if _has_states(params):
        try:
            return coords + _point_cells(mode, params, cfg.tol)
        except _COMPUTE_ERRORS:
            blank = _SKIPPED
    return coords + (blank,) * (len(_GRID_COLUMNS[mode]) - 2)


def run_grid_scan(cfg: ScanConfig):
    rows = [
        _eval_point(cfg, R, v)
        for R in _axis_values(cfg.R)
        for v in _axis_values(cfg.v)
    ]
    skipped = sum(row[-1] == _SKIPPED for row in rows)
    comments = [f"skipped: {skipped}"] if skipped else []
    return _GRID_COLUMNS[cfg.mode], comments, rows


def run_echo(cfg: ScanConfig):
    base = ModelParams(R=float(cfg.R), c=cfg.c, v=float(cfg.v))
    if _has_states(base):
        initial = stationary_states(base, cfg.tol).states[0]
        try:
            s = nonlinearity_witness(base, cfg.tol).witness
        except ModelDegenerateError:
            s = 0.0
    else:
        # Fully degenerate base: the first basis state is stationary at -c/2.
        initial = Eigenstate(1.0 + 0.0j, 0.0j, -0.5 * base.c, -1.0, 0.0)
        s = 0.0
    drive = circular_drive(base, cfg.amp, cfg.theta, cfg.T)
    trace = loschmidt_dynamical(initial, base, drive, cfg.dt)
    comments = [
        "summary: theta=%s s=%s L_adiabatic=%s L_mean=%s"
        % (
            _fmt(cfg.theta),
            _fmt(s),
            _fmt(loschmidt_adiabatic(cfg.theta, s)),
            _fmt(trace_mean(trace)),
        )
    ]
    rows = list(zip(trace.times, trace.values))
    return ("t", "L"), comments, rows


def run_triple_table(cfg: ScanConfig):
    columns = ("loop", "psi_n_minus_1", "psi_n", "psi_n_plus_1")
    rows = []
    for loop_name in ("phi", "theta"):
        signs = [transport_sign(loop_name, lvl) for lvl in (-1, 0, 1)]
        rows.append((loop_name, "%+d" % signs[0], "%+d" % signs[1], "%+d" % signs[2]))
    return columns, [], rows


def _render(cfg: ScanConfig, columns, comments, rows) -> str:
    lines = [
        f"# dimerphase {__version__}",
        f"# mode: {cfg.mode}",
        f"# config: {cfg.summary}",
        f"# config-hash: {cfg.config_hash}",
    ]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for x in row:
            if x is None:
                cells.append("")
            elif isinstance(x, str):
                cells.append(x)
            else:
                cells.append(_fmt(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_RUNNERS = {
    "spectrum": run_grid_scan,
    "berry": run_grid_scan,
    "witness": run_grid_scan,
    "echo": run_echo,
    "triple": run_triple_table,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = resolve_config(args)
    except UsageError as exc:
        print(f"dimerphase: {exc}", file=sys.stderr)
        return 2

    try:
        columns, comments, rows = _RUNNERS[cfg.mode](cfg)
        text = _render(cfg, columns, comments, rows)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"dimerphase: cannot write {cfg.out}: {exc}", file=sys.stderr)
        return 1
    except _COMPUTE_ERRORS as exc:
        print(f"dimerphase: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
