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


def _traced_spans(tmp_path, *args) -> list[dict]:
    """Run perfbench/child.py with a span trace in a subprocess; its spans."""
    root = os.path.dirname(TRACER)
    src = os.path.join(os.path.dirname(root), "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    trace = tmp_path / "spans.jsonl"
    subprocess.run([sys.executable, os.path.join(root, "child.py"),
                    "--trace-out", str(trace), "--trace-id", "t", "--parent", "op", *args],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    return [json.loads(line) for line in trace.read_text().splitlines()]


def test_traced_spectrum_run_counts_characters(tmp_path):
    spans = _traced_spans(tmp_path, "spectrum", json.dumps({"p": 3, "m": 1, "f": "square"}))
    (spectrum,) = [s for s in spans if s["name"] == "charspec.spectrum_size"]
    assert (spectrum["characters"], spectrum["members"]) == (27, 25)
    ctx = [s for s in spans if s["name"] == "charspec.make_spectrum_ctx"]
    assert [s["parent"] for s in ctx] == [spectrum["id"]]


def test_traced_verify_run_checks_planarity_once(tmp_path):
    spans = _traced_spans(tmp_path, "--spawned", "0", "cli", "verify", "--p", "3", "--m", "1")
    names = [s["name"] for s in spans]
    for check in ("verify_plane", "verify_unital_in_plane", "verify_ovals",
                  "verify_transitivity"):
        assert names.count(f"geometry.{check}") == 1, check
    assert "geometry.build_unital" not in names
    (plane,) = [s for s in spans if s["name"] == "geometry.verify_plane"]
    witness = [s for s in spans if s["name"] == "planar.planarity_witness"]
    assert [s["parent"] for s in witness] == [plane["id"]]


def test_traced_tower_rss(tmp_path):
    # the spectrum-mid q = 49 instance: the GF(7^4) sum table is 11.5 MB
    spans = _traced_spans(tmp_path, "spectrum", json.dumps({"p": 7, "m": 2, "f": "square"}))
    (tower,) = [s for s in spans if s["name"] == "fields.make_tower"]
    assert tower.get("rss_grew_mb", 0) < 40


def test_traced_kloosterman_run_has_no_per_a_sums(tmp_path):
    spans = _traced_spans(tmp_path, "--spawned", "0", "cli", "kloosterman", "--p", "3",
                          "--m", "4")
    names = [s["name"] for s in spans]
    assert names.count("kloosterman.kloosterman") == 0
    assert names.count("kloosterman.make_atlas") == 1
    assert names.count("kloosterman.count_classes") == 1


def test_traced_report_reads_criterion_from_the_table(tmp_path):
    spans = _traced_spans(tmp_path, "--spawned", "0", "cli", "report", "--q", "9")
    names = [s["name"] for s in spans]
    assert "kloosterman.kloosterman" not in names
    assert "kloosterman.thm_membership_criterion" not in names
    assert names.count("kloosterman.count_classes") == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["criterion_checks"] == [{"q": 9, "checked": 128, "met": 64,
                                           "counterexamples": 0}]


def test_traced_gf2_rank_reads_base_blocks_only(tmp_path):
    spans = _traced_spans(tmp_path, "--spawned", "0", "cli", "rank", "--p", "3", "--m", "2",
                          "--engine", "gf2")
    names = [s["name"] for s in spans]
    assert names.count("cli.compute_row") == 1
    assert "geometry.build_unital" not in names
    assert "gf2rank.rank2_of_unital" not in names
