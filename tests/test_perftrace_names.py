"""The names perfbench's tracer patches, checked in a module that imports
none of them: a renamed function fails this one test, naming it, rather
than stopping a test module that imports it from being collected."""

import importlib
import sys
from pathlib import Path


def _perfbench_module(name):
    """A module of the benchmark in perfbench/, imported by name."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module(name)


def test_every_name_the_benchmark_tracer_patches_resolves():
    """perfbench's tracer looks these up by name on every traced run."""
    perftrace = _perfbench_module("perftrace")
    names = [(qualified, attr) for qualified, attr, _, _ in perftrace.FUNCTIONS]
    names += [(module.__name__, attr) for module, attr, _ in perftrace.NN_OPS]
    names.append(("divseed.pipeline", "ProcessPoolExecutor"))
    missing = []
    for qualified, attr in names:
        owner = importlib.import_module(qualified)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{qualified}.{attr}")
    assert missing == []
