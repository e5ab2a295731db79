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
    name: `from . import x`, `from .x import y` and absolute imports."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add("zamobelt." + node.module)
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
