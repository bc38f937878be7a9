"""The benchmark's span recorder wraps package functions by name; they must exist."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys

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


def test_traced_spectrum_run_counts_characters(tmp_path):
    root = os.path.dirname(TRACER)
    src = os.path.join(os.path.dirname(root), "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    trace = tmp_path / "spans.jsonl"
    subprocess.run([sys.executable, os.path.join(root, "child.py"),
                    "--trace-out", str(trace), "--trace-id", "t", "--parent", "op",
                    "spectrum", json.dumps({"p": 3, "m": 1, "f": "square"})],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    (spectrum,) = [s for s in spans if s["name"] == "charspec.spectrum_size"]
    assert (spectrum["characters"], spectrum["members"]) == (27, 25)
    ctx = [s for s in spans if s["name"] == "charspec.make_spectrum_ctx"]
    assert [s["parent"] for s in ctx] == [spectrum["id"]]
