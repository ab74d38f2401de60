"""dimerphase benchmark: the grid, loop and echo workloads.

    python3 perfbench/run.py --workload {grid,loop,echo,all} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from its
src/ directory.  Each repetition of a workload is a fresh interpreter
(child.py) that imports dimerphase and drives it through public calls only.
Repetitions run back to back, one process at a time (a closed loop, no
pools), until the next one would end after --seconds.  Every output is
checked against an independent reference (checks.py, oracle.py) outside the
timed region.  Seed 0 runs the canonical inputs (inputs.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the repetitions: wall_s and cpu_s of the workload call, setup_s from spawning
the interpreter to dimerphase and dimerphase.cli imported (sampled by extra
import-only interpreters too), and peak_rss_mb of the child.  The three times
are rescaled to a fixed reference machine speed measured while they run
(speed.py); the measured seconds are kept in the run record.  --trace 1
alternates untraced repetitions with traced ones, whose wrappers (tracing.py)
give the per-layer metrics in measured seconds; trace_overhead is traced over
untraced wall_s, minus 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (for --workload all, one such object per
workload).  attempted and failed count checked outputs over all repetitions,
so failed/attempted is failed_frac, which the line before it prints with the
other metrics.  Failing outputs are listed above that, and the machine, load
and versions after.  Outputs, spans and a full record of each run go to
.perfbench-out/<workload>/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from inputs import make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# At least three untraced repetitions, or two untraced and two traced ones.
MIN_REPS = 3
MIN_TRACED_REPS = 4
# Import-only interpreters started before each repetition, for setup_s.
SETUP_SPAWNS = 2
CHILD_TIMEOUT_S = 150


def _spawn(request: dict, path: Path) -> dict | None:
    """Run child.py on a request; its report, or None if it failed."""
    path.write_text(json.dumps(request))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(path)],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_raw_s"] = report["imported"] - started
    report["setup_s"] = report["setup_raw_s"] * report["setup_scale"]
    return report


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(ROOT),
    }


def _layer_metrics(traced, untraced, verdict, workload) -> tuple[dict, list[str]]:
    """Medians over the traced repetitions, and the counts that did not repeat."""
    values: dict[str, float] = {}
    unsteady = []
    for name in traced[0]["layers"]:
        samples = [r["layers"][name] for r in traced]
        if name.endswith((".calls", ".steps", "bytes_out")):
            if len(set(samples)) != 1:
                unsteady.append(f"{name} differs between traced repetitions: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.wall_s"] = statistics.median(r["wall_raw_s"] for r in traced)
    values["trace_overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced)
        - 1.0
    )
    for key, metric in checks.ERROR_METRICS.items():
        values[metric] = verdict.max_err if key == workload else 0.0
    return values, unsteady


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Repeat one workload for about `seconds`; the result line, and the run's record."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out_dir = ROOT / ".perfbench-out" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(workload, seed)
    env = _environment()
    env["loadavg_before"] = os.getloadavg()
    reference = checks.REFERENCES[workload](inputs)

    request = {
        "workload": workload,
        "inputs": inputs,
        "src": str(SRC),
        "out_dir": str(out_dir),
        "spans_path": str(out_dir / "spans.npz"),
    }
    setup_request = dict(request, setup_only=True)
    request_path = out_dir / "request.json"
    _spawn(setup_request, request_path)  # warm-up: bytecode caches

    verdict = checks.Verdict()
    reports: list[dict] = []
    setup = []
    min_reps = MIN_TRACED_REPS if trace else MIN_REPS
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(reports) % 2 == 1
        started = time.perf_counter()
        for _ in range(SETUP_SPAWNS):
            report = _spawn(setup_request, request_path)
            if report is not None:
                setup.append(report["setup_s"])
        report = _spawn(dict(request, trace=traced), request_path)
        verdict.merge(reference.check(report and report["outputs"]))
        if report is None:
            reports.append({"failed": True, "traced": traced})
        else:
            setup.append(report["setup_s"])
            reports.append(dict(report, traced=traced))
        now = time.perf_counter()
        if len(reports) >= min_reps and now + (now - started) > deadline:
            break
    env["loadavg_after"] = os.getloadavg()

    metrics: dict[str, dict] = {}
    unsteady: list[str] = []
    if not any(r.get("failed") for r in reports):
        untraced = [r for r in reports if not r["traced"]]
        if trace:
            values, unsteady = _layer_metrics(
                [r for r in reports if r["traced"]], untraced, verdict, workload
            )
        else:
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in untraced),
                "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                "setup_s": statistics.median(setup),
            }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {
        "correct": bool(metrics) and verdict.unexpected == 0 and not unsteady,
        "attempted": verdict.checked,
        "failed": len(verdict.failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "inputs": inputs,
        "outputs_per_repetition": reference.outputs,
        "failed_frac": len(verdict.failures) / verdict.checked,
        "repetitions": reports,
        "setup_s": setup,
        "failures": sorted(set(verdict.failures)),
        "unsteady": unsteady,
        "result": result,
    }
    (out_dir / f"result-{seed}-{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def _print_record(record: dict) -> None:
    for what, known in record["failures"]:
        print(("known defect (ROADMAP item 3): " if known else "FAILED: ") + what)
    for what in record["unsteady"]:
        print("UNSTEADY: " + what)
    shown = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in record["result"]["metrics"].items()]
    shown.append(
        f"failed_frac {record['failed_frac']:.6g} ratio"
        f" (of {record['outputs_per_repetition']} outputs per repetition)"
    )
    print(f"{record['workload']}: " + ", ".join(shown))
    print(json.dumps({"environment": record["environment"]}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.REFERENCES) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dimerphase" / "__init__.py").is_file():
        print(f"no dimerphase sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted(checks.REFERENCES) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
        _print_record(record)
        results[workload] = record["result"]
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
