"""The benchmark's tracer wraps library functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
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
