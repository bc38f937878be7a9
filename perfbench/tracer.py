"""Spans around the calls into each shiftunital module, recorded from outside the package.

`install` replaces the public functions listed in WRAPPED, in every package module
that binds them, with wrappers that record one span per call: name, start, end, the
span that was open when the call began, and a few counts taken at the same call.
Times come from time.monotonic, which is one clock for all processes on the machine,
so run.py can link spans from child processes to its own op spans.

`layer_metrics` turns the spans of one workload round into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import time

# module -> functions wrapped. Calls between functions of one module go through the
# module's globals, so patching the module attribute also catches internal calls.
WRAPPED = {
    "fields": ("make_field", "make_tower", "construct_theta"),
    "planar": ("square_spec", "coulter_matthews_spec", "do_spec", "registry_list",
               "planarity_witness", "is_planar", "is_normal"),
    "geometry": ("find_thetas", "build_unital", "verify_design", "_basic_design_checks",
                 "verify_plane", "verify_unital_in_plane", "verify_ovals",
                 "verify_transitivity", "write_design", "read_design"),
    "gf2rank": ("rank2_of_unital",),
    "charspec": ("make_spectrum_ctx", "spectrum_size"),
    "kloosterman": ("make_atlas", "kloosterman", "count_classes",
                    "thm_membership_criterion"),
    "cli": ("compute_row", "_atomic_write"),
}


def _upper(q: int) -> int:
    return q**3 - q + 1


# span name -> counts taken from the bound arguments and the result of the call
_COUNTS = {
    "geometry.write_design": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "geometry.read_design": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "gf2rank.rank2_of_unital": lambda a, r: {
        "rank": r, "saturated": int(r == _upper(a["design"].q))},
    "charspec.spectrum_size": lambda a, r: {
        "characters": a["setup"].tower.base.n ** 3, "members": r.size},
    "cli._atomic_write": lambda a, r: {"bytes": len(a["text"].encode())},
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span list for one child process; written out once, at exit."""

    def __init__(self, trace_id: str, parent: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open = [parent]
        self._next = 0

    def new_id(self) -> str:
        self._next += 1
        return f"{self.trace_id}.{self._next}"

    def record(self, name: str, start: float, end: float, parent: str | None = None,
               span_id: str | None = None, **counts) -> None:
        self.spans.append({"trace": self.trace_id, "id": span_id or self.new_id(),
                           "parent": parent or self._open[-1], "name": name,
                           "start": start, "end": end, **counts})

    def wrap(self, name: str, fn):
        counts_of = _COUNTS.get(name)
        sig = inspect.signature(fn) if counts_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.new_id()
            parent = self._open[-1]
            self._open.append(span_id)
            rss0 = _maxrss_mb()
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._open.pop()
            counts = {}
            if counts_of:
                counts = counts_of(sig.bind(*args, **kwargs).arguments, result)
            grew = _maxrss_mb() - rss0
            if grew > 0:
                counts["rss_grew_mb"] = grew
            self.record(name, start, end, parent=parent, span_id=span_id, **counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED, in each package module that binds it."""
        import shiftunital
        mods = {name: importlib.import_module(f"shiftunital.{name}") for name in WRAPPED}
        everywhere = [shiftunital, *mods.values()]
        for mod_name, fn_names in WRAPPED.items():
            for fn_name in fn_names:
                orig = getattr(mods[mod_name], fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name}", orig)
                for mod in everywhere:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# The per-layer metrics, in the order BENCHMARK.json lists them, with their units.
LAYER_UNITS = {
    "fields.make_field_s": "s", "fields.make_tower_s": "s", "fields.tower_rss_mb": "MB",
    "planar.spec_s": "s", "planar.registry_s": "s",
    "geometry.find_thetas_s": "s", "geometry.build_unital_s": "s",
    "geometry.check_s": "s", "geometry.verify_plane_s": "s",
    "geometry.verify_unital_in_plane_s": "s", "geometry.verify_ovals_s": "s",
    "geometry.verify_transitivity_s": "s", "geometry.write_design_s": "s",
    "geometry.read_design_s": "s", "geometry.design_bytes": "bytes",
    "gf2rank.rank_s": "s", "gf2rank.instances_saturated": "count",
    "charspec.ctx_s": "s", "charspec.spectrum_s": "s", "charspec.characters": "count",
    "charspec.members": "count", "charspec.chars_per_s": "1/s",
    "kloosterman.atlas_s": "s", "kloosterman.sums": "count",
    "kloosterman.count_classes_s": "s", "kloosterman.criterion_s": "s",
    "kloosterman.criterion_calls": "count",
    "cli.process_start_s": "s", "cli.compute_row_s": "s", "cli.cache_lookups": "count",
    "cli.cache_hits": "count", "cli.hit_frac": "1", "cli.artifact_bytes": "bytes",
}

_SPEC_FNS = {"planar.square_spec", "planar.coulter_matthews_spec", "planar.do_spec",
             "planar.planarity_witness", "planar.is_planar", "planar.is_normal"}
# a compute_row span with one of these below it computed its row: a cache miss
_COMPUTE_FNS = {"geometry.build_unital", "gf2rank.rank2_of_unital",
                "charspec.spectrum_size"}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over the spans of one round.

    A time sums the spans of the named functions, counting only the outermost one
    where they nest (planarity_witness inside is_planar, say), so no interval is
    counted twice. Times are inclusive: build_unital_s contains the design check that
    build_unital runs, which check_s also counts.
    """
    by_id = {s["id"]: s for s in spans}

    def ancestors(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = by_id.get(parent["parent"])

    def secs(names, stop=frozenset()):
        blocked = names | stop
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names
                   and not any(a["name"] in blocked for a in ancestors(s)))

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    computed = {a["id"] for s in spans if s["name"] in _COMPUTE_FNS
                for a in ancestors(s)}
    lookups = calls("cli.compute_row")
    hits = sum(1 for s in spans if s["name"] == "cli.compute_row"
               and s["id"] not in computed)
    spectrum_s = secs({"charspec.spectrum_size"})
    characters = total("charspec.spectrum_size", "characters")
    return {
        "fields.make_field_s": secs({"fields.make_field"}),
        "fields.make_tower_s": secs({"fields.make_tower"}),
        "fields.tower_rss_mb": max((s.get("rss_grew_mb", 0.0) for s in spans
                                    if s["name"] == "fields.make_tower"), default=0.0),
        "planar.spec_s": secs(_SPEC_FNS, stop=frozenset({"planar.registry_list"})),
        "planar.registry_s": secs({"planar.registry_list"}),
        "geometry.find_thetas_s": secs({"geometry.find_thetas"}),
        "geometry.build_unital_s": secs({"geometry.build_unital"}),
        "geometry.check_s": secs({"geometry.verify_design",
                                  "geometry._basic_design_checks"}),
        "geometry.verify_plane_s": secs({"geometry.verify_plane"}),
        "geometry.verify_unital_in_plane_s": secs({"geometry.verify_unital_in_plane"}),
        "geometry.verify_ovals_s": secs({"geometry.verify_ovals"}),
        "geometry.verify_transitivity_s": secs({"geometry.verify_transitivity"}),
        "geometry.write_design_s": secs({"geometry.write_design"}),
        "geometry.read_design_s": secs({"geometry.read_design"}),
        "geometry.design_bytes": total("geometry.write_design", "bytes")
                                 + total("geometry.read_design", "bytes"),
        "gf2rank.rank_s": secs({"gf2rank.rank2_of_unital"}),
        "gf2rank.instances_saturated": total("gf2rank.rank2_of_unital", "saturated"),
        "charspec.ctx_s": secs({"charspec.make_spectrum_ctx"}),
        "charspec.spectrum_s": spectrum_s,
        "charspec.characters": characters,
        "charspec.members": total("charspec.spectrum_size", "members"),
        "charspec.chars_per_s": characters / spectrum_s if spectrum_s else 0.0,
        "kloosterman.atlas_s": secs({"kloosterman.make_atlas"}),
        "kloosterman.sums": calls("kloosterman.kloosterman"),
        "kloosterman.count_classes_s": secs({"kloosterman.count_classes"}),
        "kloosterman.criterion_s": secs({"kloosterman.thm_membership_criterion"}),
        "kloosterman.criterion_calls": calls("kloosterman.thm_membership_criterion"),
        "cli.process_start_s": secs({"cli.process_start"}),
        "cli.compute_row_s": secs({"cli.compute_row"}),
        "cli.cache_lookups": lookups,
        "cli.cache_hits": hits,
        "cli.hit_frac": hits / lookups if lookups else 0.0,
        "cli.artifact_bytes": total("cli._atomic_write", "bytes"),
    }
