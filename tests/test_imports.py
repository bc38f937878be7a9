"""Each command loads only the modules it runs, and compiles them before numpy; the package
exports resolve on first use."""
import os
import shutil
import subprocess
import sys

import pytest

import shiftunital

SRC = os.path.dirname(os.path.dirname(os.path.abspath(shiftunital.__file__)))
# prints, as its last line, the package modules, hashlib and fractions loaded by
# `import shiftunital` or, given an argv, by one command run through cli.main
_PROBE = """
import sys
if sys.argv[1:]:
    from shiftunital.cli import main
    assert main(sys.argv[1:]) == 0, sys.argv
else:
    import shiftunital
print(" ".join(sorted(name for name in sys.modules
                      if name.startswith("shiftunital.") or name in ("hashlib", "fractions"))))
"""
BASE = {"cli", "errors", "fields", "planar", "geometry"}
# imports argv[1] and prints, in order, the package sources it compiles and "numpy"
# where numpy's import begins
_COMPILE_PROBE = """
import importlib, os, sys
events = []

def hook(event, args):
    if event == "compile" and os.path.basename(os.path.dirname(str(args[1]))) == "shiftunital":
        events.append(os.path.basename(args[1]).removesuffix(".py"))
    elif event == "import" and args[0] == "numpy" and "numpy" not in events:
        events.append("numpy")

sys.addaudithook(hook)
importlib.import_module(sys.argv[1])
print(" ".join(events))
print(" ".join(name.removeprefix("shiftunital.") for name in sys.modules
               if name.startswith("shiftunital.")))
"""


def _loaded(cwd, *argv) -> set[str]:
    """The modules a fresh process loads, compiling from source as benchmark children do."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": SRC}
    env.pop("UNITAL_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return {name.removeprefix("shiftunital.") for name in done.stdout.splitlines()[-1].split()}


@pytest.mark.parametrize("module", ["cli", *shiftunital._EXPORTS])
def test_package_sources_compile_before_numpy(tmp_path, module):
    # a copy without __pycache__, so every package source compiles
    shutil.copytree(os.path.join(SRC, "shiftunital"), tmp_path / "shiftunital",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", _COMPILE_PROBE, f"shiftunital.{module}"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    events, loaded = (line.split() for line in done.stdout.splitlines()[-2:])
    assert set(events) - {"numpy"} == {"__init__", *loaded}
    assert module in loaded
    # every package source compiles before numpy's import begins; errors loads no numpy
    assert events[-1] == ("errors" if module == "errors" else "numpy"), events


def test_bare_import_loads_no_submodule(tmp_path):
    assert _loaded(tmp_path) == set()


@pytest.mark.parametrize("argv, extra", [
    (["verify", "--p", "3", "--m", "2"], set()),
    (["find-theta", "--p", "3", "--m", "1", "--f", "cm:3"], set()),
    (["build", "--p", "3", "--m", "1"], set()),
    (["kloosterman", "--p", "3", "--m", "2"], {"kloosterman"}),
    (["spectrum", "--p", "3", "--m", "1"], {"charspec"}),
    (["rank", "--p", "3", "--m", "1", "--engine", "gf2"], {"charspec", "gf2rank"}),
    (["report", "--q", "3"], {"charspec", "gf2rank", "kloosterman"}),
], ids=["verify", "find-theta", "build", "kloosterman", "spectrum", "rank-gf2", "report"])
def test_command_loads_only_what_it_runs(tmp_path, argv, extra):
    # no command names a user: table, so none loads hashlib; none loads fractions
    assert _loaded(tmp_path, *argv) == BASE | extra


def test_spectrum_rank_loads_no_gf2_or_kloosterman_cold_or_warm(tmp_path):
    argv = ["rank", "--p", "3", "--m", "2", "--engine", "spectrum"]
    cold = _loaded(tmp_path, *argv)
    assert list(tmp_path.glob("cache/*/result.json"))
    warm = _loaded(tmp_path, *argv)
    assert cold == warm == BASE | {"charspec"}


def test_every_export_resolves_and_is_listed():
    listed = dir(shiftunital)
    assert len(set(shiftunital.__all__)) == len(shiftunital.__all__)
    for name in shiftunital.__all__:
        obj = getattr(shiftunital, name)
        assert obj.__name__ == name and name in listed
    assert callable(shiftunital.kloosterman)     # the function, not its module
    with pytest.raises(AttributeError):
        shiftunital.no_such_name
