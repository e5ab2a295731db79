"""The package runs on the standard library alone."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import zamobelt

PACKAGE = pathlib.Path(zamobelt.__file__).parent

# every module of the package, by its import name
MODULES = sorted(
    "zamobelt" if path.stem == "__init__" else "zamobelt." + path.stem
    for path in PACKAGE.glob("*.py")
)

# imports its arguments and prints, one a line, each module that loaded
PROBE = """
import importlib
import sys

before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def is_allowed(module):
    top = module.partition(".")[0]
    return (
        top == "zamobelt"
        or top in sys.stdlib_module_names
        or (top.startswith("__") and top.endswith("__"))
    )


def loaded_by(*modules):
    """Every module a fresh interpreter loads to import modules."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *modules],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    return done.stdout.split()


def test_every_module_imports_only_the_standard_library():
    assert "zamobelt.laurent" in MODULES and "zamobelt.cli" in MODULES
    loaded = loaded_by(*MODULES)
    assert set(MODULES) <= set(loaded)
    assert [m for m in loaded if not is_allowed(m)] == []


def test_the_cli_imports_no_multiprocessing():
    # only `suite --jobs N` with N > 1 needs a process pool
    loaded = loaded_by("zamobelt.cli")
    assert "zamobelt.cli" in loaded
    assert [m for m in loaded if m.partition(".")[0] == "multiprocessing"] == []


def test_no_module_loads_hashlib():
    # the catalog version is a literal: no process hashes, so none maps
    # OpenSSL's _hashlib in
    loaded = loaded_by("zamobelt", "zamobelt.cli")
    assert "zamobelt.cli" in loaded
    assert {"hashlib", "_hashlib"}.isdisjoint(loaded)


def package_imports(module):
    """The package modules that module's source imports, by their import
    name: `from . import x`, `from .x import y` and absolute imports;
    and each name y that a `from` import takes, as "zamobelt.x.y"."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add("zamobelt." + node.module)
                found.update(
                    "zamobelt." + node.module + "." + alias.name for alias in node.names
                )
            elif node.level:
                found.update("zamobelt." + alias.name for alias in node.names)
            elif node.module.partition(".")[0] == "zamobelt":
                found.add(node.module)
                found.update(node.module + "." + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", ["tropical", "green"])
def test_the_laurent_free_tracks_import_neither_belt_nor_laurent(module):
    # the tropical and green tracks decide sigma without Laurent
    # polynomials, so a verdict built on them must not load the symbolic code
    found = package_imports(module)
    assert "zamobelt.bigraph" in found
    assert found.isdisjoint({"zamobelt.belt", "zamobelt.laurent"}), found


def test_the_symbolic_track_holds_no_root_system_code():
    # the denominator bijection reads the tropical runs, so the belt
    # needs neither the root enumerator nor the Cartan companion
    found = package_imports("belt")
    assert "zamobelt.bigraph.produced" in found
    assert found.isdisjoint({"zamobelt.dynkin", "zamobelt.bigraph.cartan_companion"})


def test_only_the_bigraph_module_reads_recurrence():
    # Bigraph.half_period is the one hypothesis gate: every other module
    # reads it, or require_recurrent, and never the verdict itself
    readers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "recurrent"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == ["bigraph"]


def package_modules(loaded):
    return {m for m in loaded if m.partition(".")[0] == "zamobelt"}


def test_importing_the_package_loads_no_track():
    assert package_modules(loaded_by("zamobelt")) == {"zamobelt"}


def test_the_bigraph_track_loads_only_what_it_imports():
    # every bigraph of a suite is built with these alone
    loaded = loaded_by("zamobelt.bigraph")
    assert package_modules(loaded) == {
        "zamobelt", "zamobelt.bigraph", "zamobelt.dynkin", "zamobelt.errors",
    }


def test_importing_the_cli_loads_no_track_a_command_runs():
    loaded = package_modules(loaded_by("zamobelt.cli"))
    assert "zamobelt.cli" in loaded
    assert loaded.isdisjoint({
        "zamobelt.belt", "zamobelt.green", "zamobelt.laurent", "zamobelt.tropical",
    }), loaded


# runs `python -m zamobelt.cli` on its arguments, then prints to stderr,
# one a line, each module the process loaded
CLI_PROBE = """
import atexit
import runpy
import sys

atexit.register(lambda: sys.stderr.write("\\n".join(sorted(sys.modules))))
runpy.run_module("zamobelt.cli", run_name="__main__", alter_sys=True)
"""


def cli_run_loads(*argv):
    """Every package module one CLI run in a fresh interpreter loads."""
    done = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert done.returncode == 0, done.stderr
    return package_modules(done.stderr.split())


@pytest.mark.parametrize("argv", [("halfperiod", "A2"), ("belt", "A2", "--steps", "3")])
def test_a_symbolic_command_loads_neither_green_nor_tropical(argv):
    loaded = cli_run_loads(*argv)
    assert "zamobelt.belt" in loaded
    assert loaded.isdisjoint({"zamobelt.green", "zamobelt.tropical"}), loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("tropical", "A2", "--trials", "2"),
        ("census", "A2"),
        ("dual-check", "A2", "--trials", "2"),
        ("green", "A2", "--skip-symbolic"),
    ],
)
def test_a_laurent_free_command_does_not_load_the_belt(argv):
    loaded = cli_run_loads(*argv)
    assert loaded & {"zamobelt.green", "zamobelt.tropical"}
    # the term guard is held in errors: no polynomial, no laurent
    assert loaded.isdisjoint({"zamobelt.belt", "zamobelt.laurent"}), loaded


def test_each_public_name_is_its_defining_modules_object():
    for name in zamobelt.__all__:
        if name != "__version__":
            value = getattr(zamobelt, name)
            assert value.__module__.partition(".")[0] == "zamobelt", name
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_the_package_lists_and_star_exports_its_public_names():
    assert set(zamobelt.__all__) <= set(dir(zamobelt))
    namespace = {}
    exec("from zamobelt import *", namespace)
    assert set(zamobelt.__all__) <= set(namespace)


def test_a_track_module_resolves_as_a_package_attribute_in_a_fresh_interpreter():
    done = subprocess.run(
        [sys.executable, "-c", "import zamobelt; print(zamobelt.belt.__name__)"],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert done.stdout == "zamobelt.belt\n"


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as caught:
        zamobelt.no_such_name
    assert str(caught.value) == "module 'zamobelt' has no attribute 'no_such_name'"
    assert not hasattr(zamobelt, "no_such_name")


def test_the_cli_runs_as_a_module_without_a_warning():
    # runpy warns when importing the package already loaded zamobelt.cli
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "zamobelt.cli", "halfperiod", "A2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert (done.returncode, done.stderr) == (0, "")
