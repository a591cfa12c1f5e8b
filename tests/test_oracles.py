"""The oracles stay out of the production path, and agree with it."""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest
from conftest import modules_loaded_by

import cubeloops
from cubeloops import validate
from cubeloops.oracles import ambient_generators, project_to_quotient
from cubeloops.reflection import reflection_generators

PACKAGE = pathlib.Path(cubeloops.__file__).parent


def _imports(tree: ast.AST, name: str) -> bool:
    """Whether the tree imports anything from the module cubeloops.<name>."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == f"cubeloops.{name}" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module == f"cubeloops.{name}":
                return True
            if node.level == 1 and module == name:
                return True
            if module in ("", "cubeloops") and any(
                alias.name == name for alias in node.names
            ):
                return True
    return False


def test_command_line_does_not_load_the_oracles():
    # a text check loads neither the census, the verify-mode closure, the
    # geometry nor the JSON layer: each is imported where it is first used
    check = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cubeloops.cli.main(['check', '--dim', '4', '--word', '12321434']) == 0"
    )
    lazy = {
        "cubeloops.enumeration",
        "cubeloops.geometry",
        "cubeloops.reflection",
        "cubeloops.jsontext",
        "json",
    }
    for statement in ("import cubeloops.cli", f"import cubeloops.cli\n{check}"):
        loaded = modules_loaded_by(statement)
        assert "cubeloops.cli" in loaded
        assert "cubeloops.oracles" not in loaded
        assert not loaded & lazy, (statement, loaded & lazy)
    # the package namespace imports a module on first access to its names
    loaded = modules_loaded_by("import cubeloops")
    assert not {name for name in loaded if name.startswith("cubeloops.")}
    assert "cubeloops.geometry" in modules_loaded_by(
        "import cubeloops\nfrom cubeloops import export_mesh"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--dim", "4", "--word", "12321434"],
        ["check", "--dim", "4", "--word", "12321434", "--mode", "verify", "--json"],
        ["enumerate", "--dim", "4", "--json", "--jobs", "1"],
        ["family", "--name", "sharp", "--dim", "6"],
        ["export", "--dim", "4", "--word", "12314234"],
    ],
)
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # the value types are NamedTuples, so no command pays for importing
    # dataclasses and the inspect module it pulls in
    run = (
        "import contextlib, io, cubeloops.cli\n"
        "out = io.TextIOWrapper(io.BytesIO(), encoding='utf-8')\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cubeloops.cli.main({argv!r}) == 0"
    )
    loaded = modules_loaded_by(run)
    assert "cubeloops.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, loaded & {"dataclasses", "inspect"}


def test_no_production_module_imports_the_oracles():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "oracles.py" in sources
    for source in sources:
        if source.name != "oracles.py":
            tree = ast.parse(source.read_text(), filename=str(source))
            assert not _imports(tree, "oracles"), source.name
    # the check itself sees each import form
    for line in (
        "from .oracles import span_lattice",
        "from . import oracles",
        "import cubeloops.oracles",
        "from cubeloops import oracles",
        "from cubeloops.oracles import span_lattice",
    ):
        assert _imports(ast.parse(line), "oracles"), line


def test_the_census_does_not_import_the_verdicts():
    # the walk decides embeddedness by its own even-lattice rank, so no
    # filter of the verdict layer runs after the search
    source = PACKAGE / "enumeration.py"
    assert not _imports(ast.parse(source.read_text(), filename=str(source)), "verdict")


def _cached_functions(tree: ast.AST) -> set[str]:
    """The functions that the tree decorates with ``lru_cache`` or ``cache``."""
    cached = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = getattr(decorator, "attr", getattr(decorator, "id", None))
                if name in ("lru_cache", "cache"):
                    cached.add(node.name)
    return cached


def test_no_new_cache_outlives_a_command():
    # a cache that outlives one cli.main call speeds up calls made in one
    # process, which a fresh command-line process never has; a new one
    # must be added here on purpose
    cached = {
        f"{source.stem}.{name}"
        for source in sorted(PACKAGE.glob("*.py"))
        for name in _cached_functions(ast.parse(source.read_text()))
    }
    assert cached == {"cli._build_parser", "groups._lane_masks"}
    # the check itself sees each decorator form
    for decorator in (
        "lru_cache",
        "lru_cache(maxsize=1)",
        "functools.lru_cache",
        "functools.lru_cache(None)",
        "cache",
        "functools.cache",
    ):
        tree = ast.parse(f"@{decorator}\ndef f():\n    pass\n")
        assert _cached_functions(tree) == {"f"}, decorator


def test_every_exported_name_resolves():
    assert len(cubeloops.__all__) <= 33
    assert set(cubeloops.__all__) <= set(dir(cubeloops))
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
