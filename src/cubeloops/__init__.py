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
name is imported from its own module.  The reference implementations the
tests check against are in :mod:`cubeloops.oracles`, which this package
does not import.
"""

from .errors import (
    BadLabelError,
    BadParametersError,
    BadProjectionError,
    BudgetExceededError,
    CubeLoopsError,
    DimensionMismatchError,
    InternalInvariantError,
    MissingDirectionError,
    NotClosedError,
    NotEmbeddedError,
    NotParallelError,
    OddLengthError,
    QuotientDomainError,
    SameEdgeError,
    UnsupportedFormatError,
    WordValidationError,
)
from .paths import (
    CanonicalWord,
    DirectionWord,
    JordanPath,
    SignSymmetry,
    canonicalize,
    parse_word,
    validate,
)
from .verdict import SurfaceReport, build_report, decide_embedded
from .geometry import (
    PatchSet,
    VertexIncidence,
    expand_patches,
    export_mesh,
    vertex_incidence,
)
from .enumeration import (
    EnumerationQuery,
    FamilySpec,
    FAMILY_NAMES,
    enumerate_paths,
    expand_word,
    family_word,
)

__version__ = "2.0.0"

__all__ = [
    "BadLabelError",
    "BadParametersError",
    "BadProjectionError",
    "BudgetExceededError",
    "CanonicalWord",
    "CubeLoopsError",
    "DimensionMismatchError",
    "DirectionWord",
    "EnumerationQuery",
    "FAMILY_NAMES",
    "FamilySpec",
    "InternalInvariantError",
    "JordanPath",
    "MissingDirectionError",
    "NotClosedError",
    "NotEmbeddedError",
    "NotParallelError",
    "OddLengthError",
    "PatchSet",
    "QuotientDomainError",
    "SameEdgeError",
    "SignSymmetry",
    "SurfaceReport",
    "UnsupportedFormatError",
    "VertexIncidence",
    "WordValidationError",
    "build_report",
    "canonicalize",
    "decide_embedded",
    "enumerate_paths",
    "expand_patches",
    "expand_word",
    "export_mesh",
    "family_word",
    "parse_word",
    "validate",
    "vertex_incidence",
]
