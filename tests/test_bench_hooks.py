"""The benchmark's span recorder wraps package functions by name; they must exist."""
import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fns in tracer.WRAPPED.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"shiftunital.{mod}"),
                                       fn, None))]
    assert missing == []
