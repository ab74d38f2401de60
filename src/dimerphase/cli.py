"""Command-line scans over the dimer model, CSV out.

Subcommands: spectrum, berry, witness, echo, triple.  Each takes only the
settings it reads: the grid modes (spectrum, berry, witness) --R, --v and
--c, where --R and --v accept a fixed value ("1.5") or an axis spec
("start:stop:count"); echo all seven, with fixed values; triple none.  A
flat key = value config file can hold any of a mode's flags; explicit flags
win.  Output is deterministic: identical configuration, identical bytes.

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
from .berry import _loop_phase
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


def _in_range(parse, ok, rule: str):
    """parse, then reject a value, or an axis with a point, that fails ok."""

    def parse_in_range(text: str, name: str):
        value = parse(text, name)
        if not np.all(ok(value)):
            raise UsageError(f"--{name}: must be {rule}")
        return value

    return parse_in_range


# Every run setting: key -> (default, parser with its range check, help).
# Each key is a --flag, a config-file key and a ScanConfig field.
_KEYS = {
    "R": ("0", _parse_axis, "bias: value or start:stop:count axis"),
    "v": ("1", _in_range(_parse_axis, lambda x: x >= 0.0, ">= 0"), "coupling: value or axis"),
    "c": ("1", _in_range(_parse_float, lambda x: x >= 0.0, ">= 0"), "nonlinearity strength"),
    "dt": ("0.002", _in_range(_parse_float, lambda x: x > 0.0, "> 0"), "integrator time step"),
    "T": ("20", _in_range(_parse_float, lambda x: x > 0.0, "> 0"), "drive duration"),
    "theta": (
        repr(0.5 * math.pi),
        _in_range(_parse_float, lambda x: 0.0 <= x <= math.pi, "in [0, pi]"),
        "drive polar angle",
    ),
    "amp": ("1", _in_range(_parse_float, lambda x: x >= 0.0, ">= 0"), "drive amplitude"),
}

# The settings each mode reads; only these are flags, config keys and hashed.
_GRID_KEYS = ("R", "v", "c")
_MODE_KEYS = {
    "spectrum": _GRID_KEYS,
    "berry": _GRID_KEYS,
    "witness": _GRID_KEYS,
    "echo": tuple(_KEYS),
    "triple": (),
}

# R and v hold a float or a 1-D ndarray axis, a setting the mode does not
# read holds None, and out is an optional path.
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
    for mode, keys in _MODE_KEYS.items():
        # No abbreviations: triple's --c would otherwise read as --config.
        sp = sub.add_parser(mode, help=f"run a {mode} scan", allow_abbrev=False)
        sp.add_argument("--out", help="output CSV path (default: stdout)")
        sp.add_argument("--config", help="flat key = value config file")
        for key in keys:
            sp.add_argument(f"--{key}", help=_KEYS[key][2])
    return parser


def load_config_file(path: str, keys: set[str]) -> dict[str, str]:
    """The key = value pairs of a config file; a key outside keys is an error."""
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
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def resolve_config(args: argparse.Namespace) -> ScanConfig:
    keys = _MODE_KEYS[args.mode]
    file_values = load_config_file(args.config, {*keys, "out"}) if args.config else {}
    # Flags win over the config file, and the file over the defaults.
    given = {**file_values, **{k: x for k, x in vars(args).items() if x is not None}}
    raw = {key: given.get(key, _KEYS[key][0]) for key in keys}
    val = {key: _KEYS[key][1](raw[key], key) for key in keys}
    if args.mode == "echo":
        for name in ("R", "v"):
            if isinstance(val[name], np.ndarray):
                raise UsageError(f"--{name}: echo takes a fixed value, not an axis")

    hashed = [f"mode={args.mode}"] + [f"{k}={_canonical(val[k])}" for k in sorted(val)]
    digest = hashlib.sha256("\n".join(hashed).encode("utf-8")).hexdigest()[:12]
    summary = " ".join(f"{k}={raw[k]}" for k in sorted(raw))
    settings = {**dict.fromkeys(_KEYS), **val, "out": given.get("out")}
    return ScanConfig(mode=args.mode, **settings, config_hash=digest, summary=summary)


def _canonical(value) -> str:
    """A parsed setting as hashed, so that "1", "1.0" and "1e0" hash alike:
    repr of a value, start:stop:count of an axis."""
    if isinstance(value, np.ndarray):
        return f"{value[0].item()!r}:{value[-1].item()!r}:{len(value)}"
    return repr(value)


def _cells(column):
    """One column's CSV cells, lazily so that they are freed row by row: a float
    array, with NaN written blank, or a sequence of strings, written as they
    are.  Adding 0.0 turns -0.0 into 0.0, so a zero prints as "0" whatever
    its sign."""
    if not isinstance(column, np.ndarray):
        return column
    values = (column + 0.0).tolist()
    # The per-cell NaN test costs a third of the formatting: only where there is a NaN.
    if np.isnan(column).any():
        return ("" if x != x else "%.12g" % x for x in values)
    return map("%.12g".__mod__, values)


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


# Each grid mode's values: one row per point, NaN for a blank cell.
_GRID_VALUES = {
    "spectrum": lambda states, v: states.energy,
    # The loop phase over pi of each point's lowest state.
    "berry": lambda states, v: (
        _loop_phase(v[:, None], states.energy[:, :1], states.imbalance[:, :1]) / math.pi
    ),
    "witness": lambda states, v: _pair_witness(
        states.amp1[:, :1], states.amp2[:, :1], states.amp1[:, 1:2], states.amp2[:, 1:2]
    ),
}


def run_grid_scan(cfg: ScanConfig):
    R_axis, v_axis = np.atleast_1d(cfg.R), np.atleast_1d(cfg.v)
    # Every (R, v) pair, R outer.
    R, v = np.repeat(R_axis, len(v_axis)), np.tile(v_axis, len(R_axis))
    blocks = []
    for first in range(0, len(R), _BLOCK):
        Rb, vb = R[first : first + _BLOCK], v[first : first + _BLOCK]
        states = stationary_arrays(Rb, vb, 0.0, cfg.c)
        values = _GRID_VALUES[cfg.mode](states, vb)
        values[states.failed] = np.nan
        blocks.append(values)
    values = np.concatenate(blocks)
    # A point is skipped when its states fail the kernel's count check or its
    # value raises; the fully degenerate origin has no states and blank cells by design.
    skipped = np.count_nonzero(_has_states(R, v) & np.isnan(values[:, 0]))
    comments = [f"skipped: {skipped}"] if skipped else []
    # Each axis value is formatted once.
    R_cells = [cell for cell in _cells(R_axis) for _ in range(len(v_axis))]
    if cfg.mode == "witness":
        ratio = v_axis / cfg.c if cfg.c > 0 else np.full_like(v_axis, np.nan)
        coords = [list(_cells(ratio)) * len(R_axis), R_cells]
    else:
        coords = [R_cells, list(_cells(v_axis)) * len(R_axis)]
    return _GRID_COLUMNS[cfg.mode], comments, coords + list(values.T)


def run_echo(cfg: ScanConfig):
    base = ModelParams(R=float(cfg.R), c=cfg.c, v=float(cfg.v))
    s = 0.0
    if _has_states(base.R, base.v):
        states = stationary_states(base).states
        initial = states[0]
        # The base's nonlinearity_witness, from the same family.
        if len(states) >= 2:
            s = _pair_witness(initial.amp1, initial.amp2, states[1].amp1, states[1].amp2)
    else:
        # Fully degenerate base: the first basis state is stationary at -c/2.
        initial = Eigenstate(1.0 + 0.0j, 0.0j, -0.5 * base.c, -1.0, 0.0)
    drive = circular_drive(base, cfg.amp, cfg.theta, cfg.T)
    trace = loschmidt_dynamical(initial, drive, cfg.dt)
    summary = np.array([cfg.theta, s, loschmidt_adiabatic(cfg.theta, s), trace_mean(trace)])
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
        f"# config: {cfg.summary}".rstrip(),  # triple reads no setting
        f"# config-hash: {cfg.config_hash}",
    ]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    return "\n".join(lines) + "\n"


_RUNNERS = {**dict.fromkeys(_GRID_COLUMNS, run_grid_scan), "echo": run_echo}
_RUNNERS["triple"] = run_triple_table


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
