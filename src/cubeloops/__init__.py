"""Classification of closed edge loops on the unit n-cube and the periodic
surfaces they generate by reflection across their edges.

The pipeline: parse and validate a word (:mod:`cubeloops.paths`), build
the edge-rotation group (:mod:`cubeloops.reflection`), read off the
translation lattice (:mod:`cubeloops.lattice`), decide
embeddedness/orientability and assemble reports (:mod:`cubeloops.verdict`),
realize the surface exactly (:mod:`cubeloops.geometry`), and search or
generate loop classes (:mod:`cubeloops.enumeration`).

This namespace exports the error classes and the entry points of the
command line and the README, with the types they return.  Every other
name is imported from its own module.  Each exported name resolves on
first access by importing its module, so ``import cubeloops`` imports no
submodule.  The reference implementations the tests check against are
in :mod:`cubeloops.oracles`, which this package does not import.
"""

from importlib import import_module

__version__ = "15.0.0"

_EXPORTS = {
    "BadLabelError": "errors",
    "BadParametersError": "errors",
    "BadProjectionError": "errors",
    "BudgetExceededError": "errors",
    "CubeLoopsError": "errors",
    "InternalInvariantError": "errors",
    "MissingDirectionError": "errors",
    "NotClosedError": "errors",
    "NotEmbeddedError": "errors",
    "OddLengthError": "errors",
    "UnsupportedFormatError": "errors",
    "WordValidationError": "errors",
    "DirectionWord": "paths",
    "JordanPath": "paths",
    "SignSymmetry": "paths",
    "canonicalize": "paths",
    "parse_word": "paths",
    "validate": "paths",
    "build_report": "verdict",
    "decide_embedded": "verdict",
    "PatchSet": "geometry",
    "VertexIncidence": "geometry",
    "expand_patches": "geometry",
    "export_mesh": "geometry",
    "vertex_incidence": "geometry",
    "EnumerationQuery": "enumeration",
    "FamilySpec": "enumeration",
    "FAMILY_NAMES": "enumeration",
    "enumerate_paths": "enumeration",
    "expand_word": "enumeration",
    "family_word": "enumeration",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return [*globals(), *__all__]
