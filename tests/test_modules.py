"""Structure of the package's modules."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import phaseuq
import phaseuq.cli

PACKAGE = Path(phaseuq.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
BENCH_LAYERS = ROOT / "bench" / "layers.py"


def load(path: Path):
    """The script at ``path``, imported as a module."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_private_names_imported_across_modules():
    # a name with a leading underscore belongs to its own module; another
    # module that needs it needs a public name instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("phaseuq"):
                continue
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not found


def test_bench_tracer_installs_and_restores():
    # `bench/run.py --trace 1` wraps package names by attribute (such as
    # cli.build_plan and solver.spla); a name that is gone fails here
    layers = load(BENCH_LAYERS)
    owners = (
        phaseuq.solver,
        phaseuq.grid,
        phaseuq.cli,
        phaseuq.campaign,
        phaseuq.artifacts,
        phaseuq.sampling.SampleStream,
        phaseuq.campaign.EvalEngine,
    )
    before = [dict(vars(owner)) for owner in owners]
    tracer = layers.Tracer()
    try:
        for install in (layers.trace_solver, layers.trace_sampling, layers.trace_campaign):
            install(tracer, phaseuq)
        assert phaseuq.cli.build_plan is not phaseuq.campaign.build_plan
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_solver_counts_tool_sums_the_states_work():
    # tools/solver_counts.py reads each step's work from its state and the
    # band sizes from a factor's attributes; a name that is gone fails here
    tool = load(ROOT / "tools" / "solver_counts.py")
    snapshot = load(ROOT / "tools" / "bench_snapshot.py")
    config, solver = phaseuq.desk_config(), phaseuq.solver
    theta = phaseuq.pilot_stream(config.master_seed).theta(0)
    runs = [(config.model(8), theta), (config.model(9), theta)]
    counts = tool.count(phaseuq, config, runs, config.sim.n_steps)
    assert set(snapshot.SOLVER_COUNTS) <= set(counts)
    states = []
    solver._sweep_factorization.cache_clear()
    for model, theta in runs:
        stencil = solver.model_stencil(model, config.kernel_for(model))
        solver.run_simulation(stencil.grid, stencil, theta, config.sim, on_step=states.append)
    solver._sweep_factorization.cache_clear()
    steps = [state for state in states if state.t > 0.0]
    assert counts["steps"] == len(steps) == 2 * config.sim.n_steps
    for name in tool.WORK:
        assert counts[name] == sum(getattr(state, name) for state in steps) > 0
    # desk models 8 and 9 (n=16) factor one band of 144 black nodes and bandwidth 17
    assert counts["segments"] == {"BandCholesky": [[(17, 144)]], "BandLU": [[(17, 144)]]}
    assert counts["factored_unknowns"] == 144 * counts["factorizations"]
