"""Each command loads only the modules it runs; no process loads dataclasses; the package
exports resolve on first use, and numpy is a plain import."""
import ast
import os
import subprocess
import sys

import pytest

import shiftunital

SRC = os.path.dirname(os.path.dirname(os.path.abspath(shiftunital.__file__)))
# Prints the package modules, hashlib, fractions and dataclasses loaded, so a set that
# equals a list of package modules also bans dataclasses. The run is one of
#   cli ARGV...   one command through cli.main;
#   library       the library path of a spectrum_size caller, one call;
#   (nothing)     import shiftunital.
_PROBE = """
import sys
mode, *rest = sys.argv[1:] or [None]
if mode == "cli":
    from shiftunital.cli import main
    assert main(rest) == 0, rest
elif mode == "library":
    from shiftunital import make_field, make_tower, spectrum_size
    from shiftunital import construct_theta, square_spec
    tower = make_tower(make_field(3, 1))
    assert spectrum_size(construct_theta(tower), square_spec(tower.ext)).size == 25
else:
    import shiftunital
print(" ".join(sorted(name.removeprefix("shiftunital.") for name in sys.modules
                      if name.startswith("shiftunital.")
                      or name in ("hashlib", "fractions", "dataclasses"))))
"""
BASE = {"cli", "errors", "fields", "planar", "geometry"}


def _run(cwd, *argv) -> set[str]:
    """The modules the probe loaded, in a fresh process that writes no bytecode, as
    benchmark children run."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": SRC}
    env.pop("UNITAL_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_library_path_loads_only_what_it_runs(tmp_path):
    assert _run(tmp_path, "library") == {"errors", "fields", "planar", "geometry", "charspec"}


def test_bare_import_loads_no_submodule(tmp_path):
    assert _run(tmp_path) == set()


def test_bare_import_leaves_numpy_a_plain_module(tmp_path):
    # numpy is an ordinary import of the modules that use it: the package puts nothing
    # in sys.modules, so a later import of numpy is numpy's own module
    probe = ("import sys, types; import shiftunital; assert 'numpy' not in sys.modules; "
             "import numpy; assert type(numpy) is types.ModuleType, type(numpy)")
    subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, check=True,
                   env={**os.environ, "PYTHONPATH": SRC})


@pytest.mark.parametrize("argv, modules", [
    (["verify", "--p", "3", "--m", "2"], BASE),
    (["find-theta", "--p", "3", "--m", "1", "--f", "cm:3"], BASE),
    (["build", "--p", "3", "--m", "1"], BASE),
    (["kloosterman", "--p", "3", "--m", "2"], {"cli", "errors", "fields", "kloosterman"}),
    (["spectrum", "--p", "3", "--m", "1"], BASE | {"charspec"}),
    (["rank", "--p", "3", "--m", "1", "--engine", "gf2"], BASE | {"charspec", "gf2rank"}),
    (["report", "--q", "3"], BASE | {"charspec", "gf2rank", "kloosterman"}),
], ids=["verify", "find-theta", "build", "kloosterman", "spectrum", "rank-gf2", "report"])
def test_command_loads_only_what_it_runs(tmp_path, argv, modules):
    # cold, then warm on the cache the cold run left, where no gf2 engine runs; no
    # command names a user: table, so none loads hashlib; none loads fractions or
    # dataclasses
    assert _run(tmp_path, "cli", *argv) == modules
    assert _run(tmp_path, "cli", *argv) == modules - {"gf2rank"}


def _package_trees():
    """(file name, AST) of each package source."""
    for name in sorted(os.listdir(os.path.join(SRC, "shiftunital"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "shiftunital", name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_package_source_imports_dataclasses():
    # the records are NamedTuples and plain classes: dataclasses would generate and
    # exec their methods in every process that imports them
    for name, tree in _package_trees():
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert "dataclasses" not in imported, name


def test_no_package_source_reads_numpy_random():
    # one fixed shuffle, gf2rank._seeded_order, serves every seeded order
    for name, tree in _package_trees():
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "random" not in attrs, name


def test_spectrum_rank_loads_no_gf2_or_kloosterman_cold_or_warm(tmp_path):
    argv = ["cli", "rank", "--p", "3", "--m", "2", "--engine", "spectrum"]
    assert _run(tmp_path, *argv) == BASE | {"charspec"}
    assert list(tmp_path.glob("cache/*/result.json"))
    assert _run(tmp_path, *argv) == BASE | {"charspec"}


def test_every_export_resolves_and_is_listed(tmp_path):
    listed = dir(shiftunital)
    assert len(set(shiftunital.__all__)) == len(shiftunital.__all__)
    for name in shiftunital.__all__:
        obj = getattr(shiftunital, name)
        assert obj.__name__ == name and name in listed
    with pytest.raises(AttributeError):
        shiftunital.no_such_name
    # no export shares a submodule's name, so the package is a plain module and
    # shiftunital.kloosterman is the submodule
    assert "kloosterman" not in shiftunital.__all__
    probe = ("import sys, types; import shiftunital.kloosterman; "
             "pkg = sys.modules['shiftunital']; assert type(pkg) is types.ModuleType, type(pkg); "
             "assert shiftunital.kloosterman is sys.modules['shiftunital.kloosterman']")
    subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, check=True,
                   env={**os.environ, "PYTHONPATH": SRC})
