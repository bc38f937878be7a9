"""Each command loads only the modules it runs, and compiles them before numpy; no process
loads dataclasses; the package exports resolve on first use."""
import ast
import os
import shutil
import subprocess
import sys

import pytest

import shiftunital

SRC = os.path.dirname(os.path.dirname(os.path.abspath(shiftunital.__file__)))
# Prints two lines: the package sources compiled, in order, with "numpy" where numpy's
# import begins (its first module import, numpy itself or a numpy.* submodule: the
# package puts a numpy in sys.modules that loads on first use, so no `import numpy`
# statement starts the import); then the package modules, hashlib, fractions and
# dataclasses loaded. The run is one of
#   cli ARGV...   one command through cli.main;
#   module NAME   import NAME, then read a numpy attribute, which loads numpy;
#   library       the library path of a spectrum_size caller, one call;
#   (nothing)     import shiftunital.
_PROBE = """
import importlib, os, sys
events = []

def hook(event, args):
    if event == "compile" and os.path.basename(os.path.dirname(str(args[1]))) == "shiftunital":
        events.append(os.path.basename(args[1]).removesuffix(".py"))
    elif (event == "import" and args[0].partition(".")[0] == "numpy"
          and "numpy" not in events):
        events.append("numpy")

sys.addaudithook(hook)
mode, *rest = sys.argv[1:] or [None]
if mode == "cli":
    from shiftunital.cli import main
    assert main(rest) == 0, rest
elif mode == "module":
    importlib.import_module(rest[0])
    import numpy
    numpy.ndarray
elif mode == "library":
    from shiftunital import make_field, make_tower, spectrum_size
    from shiftunital import construct_theta, square_spec
    tower = make_tower(make_field(3, 1))
    assert spectrum_size(construct_theta(tower), square_spec(tower.ext)).size == 25
else:
    import shiftunital
print(" ".join(events))
print(" ".join(sorted(name.removeprefix("shiftunital.") for name in sys.modules
                      if name.startswith("shiftunital.")
                      or name in ("hashlib", "fractions", "dataclasses"))))
"""
BASE = {"cli", "errors", "fields", "planar", "geometry"}


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    """A copy of the package without __pycache__, so every source a run loads compiles."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(os.path.join(SRC, "shiftunital"), root / "shiftunital",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(package, cwd, *argv) -> tuple[list[str], set[str]]:
    """(events, loaded) of the probe in a fresh process that writes no bytecode, as
    benchmark children run."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(package)}
    env.pop("UNITAL_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    events, loaded = (line.split() for line in done.stdout.splitlines()[-2:])
    return events, set(loaded)


def _assert_compiled_before_numpy(events, loaded):
    # every loaded package source compiles once, and all before numpy's import begins;
    # no package record generates its methods through dataclasses
    assert "dataclasses" not in loaded
    assert events[-1] == "numpy", events
    assert sorted(events[:-1]) == sorted({"__init__", *loaded} - {"hashlib", "fractions"})


@pytest.mark.parametrize("module", ["cli", *shiftunital._EXPORTS])
def test_package_sources_compile_before_numpy(package, tmp_path, module):
    events, loaded = _run(package, tmp_path, "module", f"shiftunital.{module}")
    assert module in loaded
    _assert_compiled_before_numpy(events, loaded)


def test_library_path_compiles_before_numpy(package, tmp_path):
    events, loaded = _run(package, tmp_path, "library")
    assert loaded == {"errors", "fields", "planar", "geometry", "charspec"}
    _assert_compiled_before_numpy(events, loaded)


def test_bare_import_loads_no_submodule(package, tmp_path):
    # and no numpy
    assert _run(package, tmp_path) == (["__init__"], set())


@pytest.mark.parametrize("argv, modules", [
    (["verify", "--p", "3", "--m", "2"], BASE),
    (["find-theta", "--p", "3", "--m", "1", "--f", "cm:3"], BASE),
    (["build", "--p", "3", "--m", "1"], BASE),
    (["kloosterman", "--p", "3", "--m", "2"], {"cli", "errors", "fields", "kloosterman"}),
    (["spectrum", "--p", "3", "--m", "1"], BASE | {"charspec"}),
    (["rank", "--p", "3", "--m", "1", "--engine", "gf2"], BASE | {"charspec", "gf2rank"}),
    (["report", "--q", "3"], BASE | {"charspec", "gf2rank", "kloosterman"}),
], ids=["verify", "find-theta", "build", "kloosterman", "spectrum", "rank-gf2", "report"])
def test_command_loads_only_what_it_runs(package, tmp_path, argv, modules):
    # cold, then warm on the cache the cold run left; no command names a user: table,
    # so none loads hashlib; none loads fractions or dataclasses
    for _ in ("cold", "warm"):
        events, loaded = _run(package, tmp_path, "cli", *argv)
        assert loaded == modules
        _assert_compiled_before_numpy(events, loaded)


def test_no_package_source_imports_dataclasses():
    # the records are NamedTuples and plain classes: dataclasses would generate and
    # exec their methods in every process that imports them
    for name in sorted(os.listdir(os.path.join(SRC, "shiftunital"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "shiftunital", name)) as fh:
            tree = ast.parse(fh.read(), name)
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert "dataclasses" not in imported, name


def test_spectrum_rank_loads_no_gf2_or_kloosterman_cold_or_warm(package, tmp_path):
    argv = ["cli", "rank", "--p", "3", "--m", "2", "--engine", "spectrum"]
    cold = _run(package, tmp_path, *argv)
    assert list(tmp_path.glob("cache/*/result.json"))
    warm = _run(package, tmp_path, *argv)
    for events, loaded in (cold, warm):
        assert loaded == BASE | {"charspec"}
        _assert_compiled_before_numpy(events, loaded)


_LOADER_PROBE = """
import importlib.util
lazy = importlib.util._LazyModule
stock, seen = lazy.__getattribute__, []

def spy(self, name):
    seen.append((name, object.__getattribute__(self, "__class__") is lazy))
    return stock(self, name)

lazy.__getattribute__ = spy
import shiftunital
import numpy
assert numpy.ndarray is numpy.asarray(0).__class__
print(*seen[0])
"""


def test_stub_hands_numpy_to_the_stock_lazy_loader(package, tmp_path):
    # the stock loader runs with the module's class exactly _LazyModule, as the loader
    # of Python 3.12.3 and later needs to load it, and only after the first read
    env = {**os.environ, "PYTHONPATH": str(package)}
    done = subprocess.run([sys.executable, "-c", _LOADER_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["ndarray", "True"]


def test_every_export_resolves_and_is_listed():
    listed = dir(shiftunital)
    assert len(set(shiftunital.__all__)) == len(shiftunital.__all__)
    for name in shiftunital.__all__:
        obj = getattr(shiftunital, name)
        assert obj.__name__ == name and name in listed
    assert callable(shiftunital.kloosterman)     # the function, not its module
    with pytest.raises(AttributeError):
        shiftunital.no_such_name
