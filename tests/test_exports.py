"""The package exports what its commands run; oracles and paper checks live in tests/."""
import ast
import importlib.util
import os

import shiftunital

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
PACKAGE = os.path.dirname(os.path.abspath(shiftunital.__file__))
# read_design pairs with the build command's write_design; KloostermanTable is
# what kloosterman_table returns to the kloosterman and report commands
ALLOWED = {"read_design", "KloostermanTable"}


def _names(path) -> set[str]:
    """Every name, attribute and imported name in the module's code."""
    with open(path) as fh:
        nodes = list(ast.walk(ast.parse(fh.read())))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.name for n in nodes if isinstance(n, ast.alias)})


def test_every_export_is_run_by_a_command():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # what perfbench wraps or calls stays until the benchmark moves off it
    kept = ALLOWED | _names(os.path.join(PERFBENCH, "child.py")).intersection(
        shiftunital.__all__) | {fn for fns in tracer.WRAPPED.values() for fn in fns}
    used = {name[:-3]: _names(os.path.join(PACKAGE, name))
            for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"}
    stray = [name for name in shiftunital.__all__ if name not in kept and not any(
        name in names for mod, names in used.items()
        if mod != getattr(shiftunital, name).__module__.rpartition(".")[2])]
    assert stray == []


def test_only_geometry_names_the_multiplier():
    # base_blocks derives the multiplier group once; every other module reads it off
    # the BaseBlocks value
    naming = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py")
                    and "_multiplier" in _names(os.path.join(PACKAGE, name)))
    assert naming == ["geometry.py"]
