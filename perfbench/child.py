"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py REQUEST.json

run.py writes the request (workload, generated inputs, output directory,
whether to trace) and reads the one JSON line this prints.  The package is
imported first, so the clock reading taken right after it, against the
parent's reading at spawn, is the set-up time every command-line call pays.
The workloads drive the package only through its public calls:
dimerphase.cli.main for grid and echo, the library API for loop.  Every call
is looked up on the module at call time, so a traced run sees it.
"""

import time

import dimerphase
import dimerphase.cli

IMPORTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

# Probe kernels run right after start-up, to rescale the set-up time.
STARTUP_PROBES = 25


def run_grid(inputs: dict, out_dir: Path) -> dict:
    path = out_dir / "grid.csv"
    code = dimerphase.cli.main(inputs["argv"] + ["--out", str(path)])
    return {"exit_codes": [code], "files": [str(path)]}


def run_echo(inputs: dict, out_dir: Path) -> dict:
    codes, files = [], []
    for k, argv in enumerate(inputs["argvs"]):
        path = out_dir / f"echo-{k}.csv"
        codes.append(dimerphase.cli.main(argv + ["--out", str(path)]))
        files.append(str(path))
    return {"exit_codes": codes, "files": files}


def run_loop(inputs: dict, out_dir: Path) -> dict:
    dp = dimerphase
    phases = []
    for R, c, v in inputs["loops"]:
        params = dp.ModelParams(R=R, c=c, v=v)
        seed = dp.stationary_states(params).states[0]
        branch = dp.continue_branch(dp.phi_loop(params, inputs["loop_points"]), seed)
        phases.append(dp.berry_phase_discrete(branch))
    quadratures = []
    for kind, theta, s in inputs["frames"]:
        loop = dp.frame_loop(theta, s, n_points=inputs["frame_points"])
        phase = getattr(dp, f"berry_phase_{kind}")
        quadratures.append(list(phase(loop).as_tuple()))
    signs = {
        name: [dp.transport_sign(name, level) for level in (-1, 0, 1)]
        for name in ("phi", "theta")
    }
    return {"phases": phases, "quadratures": quadratures, "signs": signs, "files": []}


WORKLOADS = {"grid": run_grid, "loop": run_loop, "echo": run_echo}


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _peak_rss_mib() -> float:
    """High-water resident set of this process image.

    ru_maxrss is not used: Linux carries it across exec, so a child spawned
    from a large parent reports the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[1]).read_text())
    src = Path(request["src"]).resolve()
    if Path(dimerphase.__file__).resolve().parent.parent != src:
        print(f"imported dimerphase from {dimerphase.__file__}, not {src}", file=sys.stderr)
        return 3
    startup = speed.Probe()
    startup.burst(STARTUP_PROBES)
    report = {"imported": IMPORTED, "setup_scale": startup.scale}
    if request.get("setup_only"):
        print(json.dumps(report))
        return 0

    tracer = None
    if request["trace"]:
        import tracing  # only traced runs pay for its imports

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_dir = Path(request["out_dir"])
    run = WORKLOADS[request["workload"]]
    probe = speed.Probe()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    probe.start()
    outputs = run(request["inputs"], out_dir)
    probe.stop()
    t1 = time.perf_counter()
    cpu1 = _cpu_seconds()
    spent = probe.spent
    if len(probe.samples) < STARTUP_PROBES:  # too short a run to have sampled its speed
        probe.burst(STARTUP_PROBES)

    report.update(
        wall_raw_s=t1 - t0,
        cpu_raw_s=cpu1 - cpu0,
        probe_s=spent,
        scale=probe.scale,
        wall_s=(t1 - t0 - spent) * probe.scale,
        cpu_s=(cpu1 - cpu0 - spent) * probe.scale,
        peak_rss_mb=_peak_rss_mib(),
        outputs=outputs,
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        written = [f for f in outputs["files"] if os.path.exists(f)]
        layers["cli.bytes_out"] = sum(os.path.getsize(f) for f in written)
        report["layers"] = layers
        np.savez(request["spans_path"], spans=tracer.spans(), names=np.array(tracer.names))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
