"""Structure of the package's modules."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import phaseuq
import phaseuq.cli

PACKAGE = Path(phaseuq.__file__).parent
BENCH_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


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
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
