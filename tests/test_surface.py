"""The package's public surface: what it exports, what the benchmark traces,
and what each module imports."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import dimerphase

# Every name a command-line mode, an acceptance criterion or the benchmark
# reaches: the functions they call, the records those functions take or
# return, and the errors they raise.
PUBLIC = [
    "AmbiguousRegimeError",
    "AtDegeneracyError",
    "BranchLostError",
    "DimerPhaseError",
    "DriveSchedule",
    "EchoTrace",
    "Eigenstate",
    "FrameLoop",
    "InvalidStateError",
    "LoopTooCoarseError",
    "ModelParams",
    "NearSingularLoopError",
    "ParamPath",
    "PhasePair",
    "SingularLimitError",
    "StationaryArrays",
    "StationaryFamily",
    "StepSizeError",
    "TripleEigensystem",
    "TripleFrame",
    "WitnessReport",
    "__version__",
    "berry_phase_closed_form",
    "berry_phase_constant_theta",
    "berry_phase_discrete",
    "berry_phase_perturbative",
    "berry_phase_small_overlap",
    "berry_phase_unit_overlap",
    "continue_branch",
    "delta_matrix",
    "eigenvector_rows",
    "evolve_nonlinear",
    "frame_loop",
    "loschmidt_adiabatic",
    "loschmidt_adiabatic_limit",
    "loschmidt_dynamical",
    "nonlinearity_witness",
    "phi_loop",
    "solid_angle",
    "stationary_arrays",
    "stationary_states",
    "trace_mean",
    "transport_sign",
    "triple_eigensystem",
    "triple_frame",
]

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PACKAGE = Path(dimerphase.__file__).parent


def test_exports_exactly_the_public_names():
    assert sorted(dimerphase.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(dimerphase, name) is not None


def test_benchmark_layers_name_public_functions():
    # A traced benchmark run wraps the public functions of each module and
    # reads its per-layer metrics <module>.<function>.<what> by name, so a
    # function that is renamed or made private breaks it.
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    layers = {tuple(name.split(".")[:2]) for name in names if name.count(".") == 2}
    assert layers
    for module_name, function in sorted(layers):
        module = importlib.import_module(f"dimerphase.{module_name}")
        if (module_name, function) == ("echo", "params_at"):
            obj = module.DriveSchedule.params_at
        else:
            obj = getattr(module, function, None)
            assert inspect.isfunction(obj), f"{module_name}.{function} is not a function"
            assert obj.__module__ == module.__name__
        assert not function.startswith("_")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_modules_use_every_name_they_import():
    # No linter runs on the package; this is its unused-import check.  The
    # package's __init__.py imports names to export them, so it is left out.
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(set(_imported_names(tree)) - used)
        if names:
            unused[path.name] = names
    assert unused == {}
