"""The oracles stay out of the production path, and agree with it."""

from __future__ import annotations

import ast
import importlib
import pathlib

from conftest import modules_loaded_by

import cubeloops
from cubeloops import validate
from cubeloops.oracles import ambient_generators, project_to_quotient
from cubeloops.reflection import reflection_generators

PACKAGE = pathlib.Path(cubeloops.__file__).parent


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "cubeloops.oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module == "cubeloops.oracles":
                return True
            if node.level == 1 and module == "oracles":
                return True
            if module in ("", "cubeloops") and any(
                alias.name == "oracles" for alias in node.names
            ):
                return True
    return False


def test_command_line_does_not_load_the_oracles():
    loaded = modules_loaded_by("import cubeloops.cli")
    assert "cubeloops.cli" in loaded
    assert "cubeloops.oracles" not in loaded


def test_no_production_module_imports_the_oracles():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "oracles.py" in sources
    for source in sources:
        if source.name != "oracles.py":
            tree = ast.parse(source.read_text(), filename=str(source))
            assert not _imports_oracles(tree), source.name
    # the check itself sees each import form
    for line in (
        "from .oracles import span_lattice",
        "from . import oracles",
        "import cubeloops.oracles",
        "from cubeloops import oracles",
        "from cubeloops.oracles import span_lattice",
    ):
        assert _imports_oracles(ast.parse(line)), line


def test_every_exported_name_resolves():
    assert len(cubeloops.__all__) <= 37
    modules = [cubeloops] + [
        importlib.import_module(f"cubeloops.{source.stem}")
        for source in sorted(PACKAGE.glob("*.py"))
        if source.stem not in ("__init__", "__main__")
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_quotient_and_ambient_edge_rotations_agree(
    n3_classes, n4_classes, random_n5_paths
):
    # two independent constructions of the same m half-turns: the ambient
    # one reduced mod 4 must be the quotient one, edge by edge
    paths = [validate(word) for word in (*n3_classes, *n4_classes)]
    for path in (*paths, *random_n5_paths):
        quotient = reflection_generators(path)
        ambient = ambient_generators(path)
        assert len(quotient) == len(ambient) == path.length
        for a, q in zip(ambient, quotient):
            assert project_to_quotient(a) == q, path.word
