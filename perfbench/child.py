"""One benchmark op in its own process.

    child.py [--trace-out PATH --trace-id ID --parent ID --spawned T] MODE ARG...

MODE is one of
  cli ARGV...       run `shiftunital` with ARGV (only traced runs come through here;
                    untraced CLI ops run `python3 -m shiftunital.cli` directly);
  spectrum JSON     spectrum_size for one library instance, printing the sizes;
  setup JSON        import the package and build field, tower, planar spec and theta
                    for each listed instance, and nothing else.

With --trace-out, the calls into the package are wrapped (see tracer.py) and the
spans are written to PATH when the op ends, also when it fails.
"""
from __future__ import annotations

import argparse
import json
import sys
import time


def _thetas(spec, tower, picks):
    """Recipe theta for the square family; otherwise find_thetas entries chosen by picks."""
    from shiftunital import construct_theta, find_thetas
    if spec.family == "square" and not picks:
        return [construct_theta(tower)]
    found = find_thetas(spec, tower)
    return [found[k % len(found)] for k in picks or [0]]


def _specs(tower, selector):
    from shiftunital import coulter_matthews_spec, registry_list, square_spec
    if selector == "registry":
        return registry_list(tower.ext)
    if selector == "square":
        return [square_spec(tower.ext)]
    return [coulter_matthews_spec(tower.ext, int(selector.split(":")[1]))]


def setup(instances: list[dict]) -> None:
    from shiftunital import make_field, make_tower
    for inst in instances:
        base = make_field(inst["p"], inst["m"])
        if inst.get("f") is None:           # a Kloosterman instance needs the field only
            continue
        tower = make_tower(base)
        for spec in _specs(tower, inst["f"]):
            _thetas(spec, tower, inst.get("picks"))


def spectrum(inst: dict) -> None:
    from shiftunital import make_field, make_tower, spectrum_size
    tower = make_tower(make_field(inst["p"], inst["m"]))
    (spec,) = _specs(tower, inst["f"])
    rows = []
    for setup_ in _thetas(spec, tower, inst.get("picks")):
        rows.append({"theta": setup_.theta, "size": spectrum_size(setup_, spec).size})
    print(json.dumps({"q": tower.base.n, "rows": rows}))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out")
    parser.add_argument("--trace-id")
    parser.add_argument("--parent")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("mode", choices=["cli", "spectrum", "setup"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    import shiftunital.cli
    tracer = None
    if opts.trace_out:
        from tracer import Tracer
        tracer = Tracer(opts.trace_id, opts.parent)
        if opts.mode == "cli":
            tracer.record("cli.process_start", opts.spawned, time.monotonic())
        tracer.install()
    try:
        if opts.mode == "cli":
            return shiftunital.cli.main(opts.args)
        doc = json.loads(opts.args[0])
        if opts.mode == "spectrum":
            spectrum(doc)
        else:
            setup(doc)
        return 0
    finally:
        if tracer is not None:
            tracer.write(opts.trace_out)


if __name__ == "__main__":
    sys.exit(main())
