"""The benchmark calls library names; they must exist, so a rename fails here first."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = load_tracer().LAYERS
    assert layers
    for module, path, *_ in layers:
        owner = importlib.import_module("chevelem." + module)
        for attr in path.split("."):
            assert hasattr(owner, attr), "%s.%s is traced but missing" % (module, path)
            owner = getattr(owner, attr)
        assert callable(owner), "%s.%s is traced but not callable" % (module, path)


def library_chains(tree):
    """Every ce.<a> and ce.<a>.<b> attribute chain in a module, as tuples."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "ce" and names:
            chains.add(tuple(reversed(names))[:2])
    return chains


def test_every_workload_call_resolves():
    # the bench imports chevelem, chevelem.cli and chevelem.fileio and passes the package as ce
    ce = importlib.import_module("chevelem")
    importlib.import_module("chevelem.cli")
    importlib.import_module("chevelem.fileio")
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    chains = library_chains(tree)
    assert ("localglobal", "dilate_word") in chains and ("BaseRing", "integers") in chains
    for chain in sorted(chains):
        owner = ce
        for attr in chain:
            assert hasattr(owner, attr), "ce.%s is called by the bench but missing" % ".".join(chain)
            owner = getattr(owner, attr)
    # called on an instance (g.base.from_int), so no ce. chain names it
    assert callable(ce.BaseRing.integers().from_int)
