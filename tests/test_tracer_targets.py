"""The benchmark's traced mode wraps library functions by name: every one
of them must still exist, and every traced family scan must still take its
family as a parameter named `cubes`."""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the family scans whose `cubes` argument the tracer counts, by layer
SCANS = {"weights": ("a1_constant", "ap_constant", "doubling_report"),
         "oscillation": ("blo_constant", "bmo_norm", "blo_p_norm")}


def load_tracer():
    # loaded from its path: perfbench is not an installed package
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer = load_tracer()
    missing = [f"{module.__name__}.{name}" for module, name in tracer.TRACED
               if not callable(getattr(module, name, None))]
    assert missing == []
    assert callable(tracer.report.CorpusEntry.realize)


def test_every_traced_scan_takes_cubes():
    tracer = load_tracer()
    traced = {(module.__name__.rsplit(".", 1)[-1], name)
              for module, name in tracer.TRACED}
    for layer, names in SCANS.items():
        module = getattr(tracer, layer)
        for name in names:
            assert (layer, name) in traced
            fn = getattr(module, name)
            assert "cubes" in inspect.signature(fn).parameters, name
