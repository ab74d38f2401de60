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
    _pair_witness,
    circular_drive,
    loschmidt_adiabatic,
    loschmidt_dynamical,
    trace_mean,
)
from .errors import DimerPhaseError
from .model import (
    Eigenstate,
    ModelParams,
    _has_states,
    stationary_arrays,
    stationary_states,
)
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
    start, stop = _parse_float(parts[0], name), _parse_float(parts[1], name)
    with np.errstate(all="ignore"):
        axis = np.linspace(start, stop, count)
    if not np.isfinite(axis).all():
        raise UsageError(f"--{name}: axis {text!r} has points that are not finite")
    return axis


def _parse_float(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"--{name}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"--{name}: expected a finite number, got {text!r}")
    return value


# Every run setting: key -> (default, parser, help).  Each key is a --flag,
# a config-file key and a ScanConfig field.
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


_VALUE_FLAGS = {f"--{key}" for key in _KEYS}


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
            sp.add_argument(f"--{key}", help=help_text)
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
        key = key.strip()
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
    val = {key: parse(raw[key], key) for key, (_, parse, _) in _KEYS.items()}

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

    hashed = [f"mode={args.mode}"] + [f"{k}={_canonical(val[k])}" for k in sorted(val)]
    digest = hashlib.sha256("\n".join(hashed).encode("utf-8")).hexdigest()[:12]
    summary = " ".join(f"{k}={raw[k]}" for k in sorted(raw))
    return ScanConfig(mode=args.mode, **val, out=out, config_hash=digest, summary=summary)


def _canonical(value) -> str:
    """A parsed setting as hashed, so that "1", "1.0" and "1e0" hash alike:
    repr of a value, start:stop:count of an axis."""
    if isinstance(value, np.ndarray):
        return f"{value[0].item()!r}:{value[-1].item()!r}:{len(value)}"
    return repr(value)


def _cells(column):
    """One column's CSV cells, lazily so that they are freed row by row: a float
    array in one pass, or a sequence that may also hold strings, written as
    they are, and None, written blank.  Adding 0.0 turns -0.0 into 0.0, so a
    zero prints as "0" whatever its sign."""
    if isinstance(column, np.ndarray):
        return map("%.12g".__mod__, (column + 0.0).tolist())
    return ("" if x is None else x if isinstance(x, str) else "%.12g" % (x + 0.0) for x in column)


# Errors of a computation that cannot evaluate a point or a run: main maps
# them to exit code 1, a grid scan to a skipped point.
_COMPUTE_ERRORS = (DimerPhaseError, ValueError, ArithmeticError)

# Grid modes and their CSV columns; the first two hold the point's coordinates.
_GRID_COLUMNS = {
    "spectrum": ("R", "v", "E1", "E2", "E3", "E4"),
    "berry": ("R", "v", "gamma_over_pi"),
    "witness": ("v_over_c", "R", "witness"),
}

# Grid points per stationary_arrays call.  Rows are built block by block: one
# call for a whole 101 x 101 grid peaked at 49.6 MiB, against 38.6 MiB.
_BLOCK = 1024


def _spectrum_cells(states, v: np.ndarray) -> list:
    return [
        tuple(energies[:n]) + (None,) * (4 - n)
        for energies, n in zip(states.energy.tolist(), states.count.tolist())
    ]


def _berry_cells(states, v: np.ndarray) -> list:
    """The loop phase of each point's lowest state; None where it has none or it raises."""
    cells = []
    lowest = zip(v.tolist(), states.energy[:, 0].tolist(), states.imbalance[:, 0].tolist())
    for n, (vk, energy, imbalance) in zip(states.count.tolist(), lowest):
        try:
            gamma = berry_phase_closed_form(vk, energy, imbalance) if n else None
        except _COMPUTE_ERRORS:
            gamma = None
        cells.append(None if gamma is None else (gamma / math.pi,))
    return cells


def _witness_cells(states, v: np.ndarray) -> list:
    """nonlinearity_witness of each point; None where it has fewer than two states."""
    pairs = zip(states.amp1[:, :2].tolist(), states.amp2[:, :2].tolist())
    return [
        (_pair_witness(a1[0], a2[0], a1[1], a2[1]),) if n >= 2 else None
        for n, (a1, a2) in zip(states.count.tolist(), pairs)
    ]


_GRID_CELLS = {"spectrum": _spectrum_cells, "berry": _berry_cells, "witness": _witness_cells}

# Cell value of a point that could not be computed: it renders blank, like
# the None cells of the fully degenerate origin, but counts as skipped.
_SKIPPED = ""


def run_grid_scan(cfg: ScanConfig):
    R_axis, v_axis = np.atleast_1d(cfg.R), np.atleast_1d(cfg.v)
    # Every (R, v) pair, R outer.
    R, v = np.repeat(R_axis, len(v_axis)), np.tile(v_axis, len(R_axis))
    cells_of, width = _GRID_CELLS[cfg.mode], len(_GRID_COLUMNS[cfg.mode]) - 2
    cells = []  # the value cells of each point
    for first in range(0, len(R), _BLOCK):
        Rb, vb = R[first : first + _BLOCK], v[first : first + _BLOCK]
        states = stationary_arrays(Rb, vb, 0.0, cfg.c, cfg.tol)
        # The fully degenerate origin has None cells by design; a point whose
        # states fail the kernel's count check, or whose cell raises, is skipped.
        per_point = zip(_has_states(Rb, vb).tolist(), states.failed.tolist(), cells_of(states, vb))
        cells += [
            (None,) * width if not has else (_SKIPPED,) * width if failed or cell is None else cell
            for has, failed, cell in per_point
        ]
    skipped = sum(cell[-1] == _SKIPPED for cell in cells)
    comments = [f"skipped: {skipped}"] if skipped else []
    # Each axis value is formatted once.
    R_cells = [cell for cell in _cells(R_axis) for _ in range(len(v_axis))]
    if cfg.mode == "witness":
        ratio = list(_cells(v_axis / cfg.c)) if cfg.c > 0 else [None] * len(v_axis)
        coords = [ratio * len(R_axis), R_cells]
    else:
        coords = [R_cells, list(_cells(v_axis)) * len(R_axis)]
    return _GRID_COLUMNS[cfg.mode], comments, coords + list(zip(*cells))


def run_echo(cfg: ScanConfig):
    base = ModelParams(R=float(cfg.R), c=cfg.c, v=float(cfg.v))
    s = 0.0
    if _has_states(base.R, base.v):
        states = stationary_states(base, cfg.tol).states
        initial = states[0]
        # The base's nonlinearity_witness, from the same family.
        if len(states) >= 2:
            s = _pair_witness(initial.amp1, initial.amp2, states[1].amp1, states[1].amp2)
    else:
        # Fully degenerate base: the first basis state is stationary at -c/2.
        initial = Eigenstate(1.0 + 0.0j, 0.0j, -0.5 * base.c, -1.0, 0.0)
    drive = circular_drive(base, cfg.amp, cfg.theta, cfg.T)
    trace = loschmidt_dynamical(initial, drive, cfg.dt)
    summary = (cfg.theta, s, loschmidt_adiabatic(cfg.theta, s), trace_mean(trace))
    comments = ["summary: theta=%s s=%s L_adiabatic=%s L_mean=%s" % tuple(_cells(summary))]
    return ("t", "L"), comments, [trace.times, trace.values]


def run_triple_table(cfg: ScanConfig):
    loops = ("phi", "theta")
    signs = [["%+d" % transport_sign(loop, lvl) for loop in loops] for lvl in (-1, 0, 1)]
    return ("loop", "psi_n_minus_1", "psi_n", "psi_n_plus_1"), [], [loops, *signs]


def _render(cfg: ScanConfig, header, comments, columns) -> str:
    lines = [
        f"# dimerphase {__version__}",
        f"# mode: {cfg.mode}",
        f"# config: {cfg.summary}",
        f"# config-hash: {cfg.config_hash}",
    ]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*map(_cells, columns))))
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
        header, comments, columns = _RUNNERS[cfg.mode](cfg)
        text = _render(cfg, header, comments, columns)
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
