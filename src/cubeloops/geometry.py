"""Piecewise-linear realization of the reflected surface, exactly.

The initial surface is the cone over the loop from the cube center: a fan
of m triangles.  Each element (v, rho) of the reflection closure carries
that disk into the unit cube centered at v of the 4-periodic torus via
x -> v + (-1)^rho x.  This module builds those patches, counts how many
patch boundaries meet at each vertex of the cube tessellation (the
geometric embeddedness test: a self-intersection forces eight or more
patches at some vertex, an embedded surface never exceeds four), and
serializes the result as OBJ or JSON.

Every coordinate is stored doubled, so cube-corner vertices are odd
integers, centers and anchors even integers, and all predicates are exact
integer comparisons — no floating point, no tolerances.  The torus is the
doubled grid modulo 8.  A patch keeps only its anchor (the element's
translation vector; the placed apex is twice it) and its placed rim.
Wrapped (mod 8) coordinates feed the incidence count and the JSON mesh,
which is written one patch at a time; OBJ output keeps each patch placed
at its anchor inside one fundamental domain so triangles are not torn by
wrap-around.
"""

from __future__ import annotations

import io
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .errors import BadProjectionError, BudgetExceededError, UnsupportedFormatError
from .groups import flip_subgroup_order
from .jsontext import stream
from .lattice import even_translation_lattice
from .paths import JordanPath
from .reflection import ReflectionClosure, reflection_closure, reflection_generators

__all__ = [
    "Patch",
    "PatchSet",
    "VertexIncidence",
    "PATCH_COORDINATE_BUDGET",
    "closure_within_budget",
    "cone_disk",
    "expand_patches",
    "vertex_incidence",
    "export_mesh",
]


# Most doubled coordinates the patches of one surface may place: about
# 150 MB peak RSS for patches and incidence counts, 500 MB for a JSON
# export (scaled from sharp n=10, Python 3.11).  Verify mode runs its
# oracles only within it; every closure of dimension 6 or less fits.
PATCH_COORDINATE_BUDGET = 1 << 22


def closure_within_budget(path: JordanPath) -> ReflectionClosure:
    """The reflection closure, refused up front when its patches would
    place over PATCH_COORDINATE_BUDGET coordinates: m + 1 points in R^n per
    element, flip-subgroup order times the path's even translation lattice
    order elements.  That lattice reduces the rows the path carries
    (``JordanPath.rows``); the walk is not read again."""
    n = path.dim
    order = flip_subgroup_order(n) * even_translation_lattice(path).order
    coordinates = order * (path.length + 1) * n
    if coordinates > PATCH_COORDINATE_BUDGET:
        raise BudgetExceededError(
            f"{order} patches would place {coordinates} coordinates, over "
            f"the budget of {PATCH_COORDINATE_BUDGET}"
        )
    return reflection_closure(reflection_generators(path))


def cone_disk(path: JordanPath) -> tuple[tuple[int, ...], ...]:
    """Rim of the triangle fan over the loop from the cube center, doubled.

    The rim vertices are the walk vertices (entries +-1 when doubled).
    The fan's apex is the origin, and triangle k joins it to rim k and
    rim k+1, so the fan's boundary is exactly the loop.
    """
    n = path.dim
    return tuple(
        tuple(-1 if (mask >> k) & 1 else 1 for k in range(n))
        for mask in path.vertex_masks
    )


class Patch(NamedTuple):
    """One placed copy of the cone disk.

    ``anchor`` is the closure element's translation vector a in {0,1,2,3}^n
    (the center of the carrying cube): the placed apex is 2a, and the
    element's flips are the parity pattern of a.  ``rim`` coordinates are
    doubled and anchor-placed (not wrapped), so they lie in [-1, 7].  A
    patch's index is its position in :attr:`PatchSet.patches`.
    """

    anchor: tuple[int, ...]
    rim: tuple[tuple[int, ...], ...]


class PatchSet(NamedTuple):
    """All patches of the surface in the torus: one per closure element."""

    dim: int
    rim_size: int
    patches: tuple[Patch, ...]

    @property
    def count(self) -> int:
        return len(self.patches)

    @property
    def triangle_count(self) -> int:
        return self.count * self.rim_size


def expand_patches(
    path: JordanPath, closure: ReflectionClosure | None = None
) -> PatchSet:
    """Place one cone-disk copy per reflection-closure element.

    The element with translation vector a places coordinate k of a disk
    point x at 2a_k + x_k, or at 2a_k - x_k when a_k is odd (the element's
    flips are the parity pattern of a).  So each coordinate of the disk has
    only four placed columns, one per value of a_k; they are built once per
    loop from the rim (:func:`cone_disk`) and every patch's rim is zipped
    together from n of them.  The apex (the origin) lands on 2a.  The
    identity element reproduces the original disk in the base cube; each
    patch's anchor is its element's vector.
    """
    disk = cone_disk(path)
    if closure is None:
        closure = closure_within_budget(path)
    placed = [
        [tuple(2 * a - x if a % 2 else 2 * a + x for x in column) for a in range(4)]
        for column in zip(*disk)
    ]
    patches = []
    for element in closure.elements:
        anchor = element.vector
        rim = tuple(zip(*(placed[k][a] for k, a in enumerate(anchor))))
        patches.append(Patch(anchor, rim))
    return PatchSet(path.dim, len(disk), tuple(patches))


class VertexIncidence(NamedTuple):
    """Per-vertex patch-boundary multiplicities over the torus grid.

    ``counts`` maps each wrapped cube-corner vertex touched by some patch
    boundary to the number of incident patches.  The surface is embedded
    exactly when no vertex collects eight or more patches; on an embedded
    surface every touched vertex collects exactly four.
    """

    max_multiplicity: int
    embedded: bool
    counts: dict[tuple[int, ...], int]


def vertex_incidence(patches: PatchSet) -> VertexIncidence:
    # Placed coordinates lie in [-1, 7]: count the placed rim vertices,
    # then fold the distinct ones onto the torus (c & 7 is c mod 8).
    placed = Counter(chain.from_iterable(patch.rim for patch in patches.patches))
    counts: dict[tuple[int, ...], int] = {}
    for vertex, count in placed.items():
        wrapped = tuple([c & 7 for c in vertex])
        counts[wrapped] = counts.get(wrapped, 0) + count
    worst = max(counts.values(), default=0)
    return VertexIncidence(worst, worst < 8, counts)


# the coordinates an OBJ vertex has
_OBJ_AXES = 3


def _check_export(
    dim: int, format: str, projection: tuple[int, ...] | None
) -> tuple[int, ...] | None:
    """Check a mesh request, which needs no patch: return the axes an OBJ
    mesh keeps (0-based), or None for JSON."""
    if format == "json":
        if projection:
            raise BadProjectionError(
                "projection applies to OBJ output only; JSON is always "
                "full-dimensional"
            )
        return None
    if format != "obj":
        raise UnsupportedFormatError(f"unknown mesh format {format!r} (use obj or json)")
    dropped = tuple(projection or ())
    for axis in dropped:
        if not 1 <= axis <= dim:
            raise BadProjectionError(f"projection axis {axis} out of range 1..{dim}")
    if len(set(dropped)) != len(dropped):
        raise BadProjectionError(f"projection axes repeat: {dropped}")
    kept = tuple(k for k in range(dim) if (k + 1) not in dropped)
    if len(kept) != _OBJ_AXES:
        raise BadProjectionError(
            f"dropping axes {dropped or '()'} leaves {len(kept)} coordinates; "
            f"OBJ output needs exactly {_OBJ_AXES}"
        )
    return kept


def export_mesh(
    patches: PatchSet,
    format: str = "obj",
    projection: tuple[int, ...] | None = None,
    incidence: VertexIncidence | None = None,
) -> bytes:
    """Serialize the patch set.

    OBJ: one group per patch, anchor-placed coordinates printed as halves
    with one fractional digit; the effective dimension after dropping the
    ``projection`` axes must be 3.  JSON: the full-dimensional exact
    torus mesh (doubled integer coordinates, mod 8); no projection
    applies.  Non-embedded surfaces carry a warning in either format;
    ``incidence`` is the patch set's :func:`vertex_incidence` when the
    caller has it already.
    """
    kept = _check_export(patches.dim, format, projection)
    if incidence is None:
        incidence = vertex_incidence(patches)
    warning = None
    if not incidence.embedded:
        warning = (
            "surface has self-intersections: "
            f"{incidence.max_multiplicity} patch boundaries meet at a vertex"
        )
    if kept is None:
        return _render_json(patches, warning)
    return _render_obj(patches, kept, warning)


def _render_obj(
    patches: PatchSet, kept: tuple[int, ...], warning: str | None
) -> bytes:
    lines = ["# periodic reflection surface mesh"]
    if len(kept) != patches.dim:
        dropped = [k + 1 for k in range(patches.dim) if k not in kept]
        lines.append(f"# projection: dropped axes {dropped}")
    if warning:
        lines.append(f"# warning: {warning}")
    m = patches.rim_size
    for index, patch in enumerate(patches.patches):
        lines.append(f"g patch_{index}")
        # the apex is twice the anchor, a whole number when halved
        lines.append("v " + " ".join(f"{patch.anchor[k]}.0" for k in kept))
        for vertex in patch.rim:
            coords = " ".join(_half_str(vertex[k]) for k in kept)
            lines.append(f"v {coords}")
        base = index * (m + 1) + 1  # OBJ indices are 1-based
        for k in range(m):
            lines.append(f"f {base} {base + 1 + k} {base + 1 + (k + 1) % m}")
    lines.append("")
    return "\n".join(lines).encode()


def _half_str(doubled: int) -> str:
    whole, rem = divmod(doubled, 2)
    return f"{whole}.0" if rem == 0 else f"{doubled / 2:.1f}"


def _render_json(patches: PatchSet, warning: str | None) -> bytes:
    # The text of json.dumps(document, indent=1), with each mesh array
    # written one patch's items at a time: the arrays are nearly all of
    # the output, and none of them is ever held whole.
    m = patches.rim_size
    spokes = [(1 + k, 1 + (k + 1) % m) for k in range(m)]
    document = {
        "dim": patches.dim,
        "vertices": (
            [tuple([2 * a for a in p.anchor]), *(tuple([c % 8 for c in v]) for v in p.rim)]
            for p in patches.patches
        ),
        "triangles": (
            [(base, base + j, base + k) for j, k in spokes]
            for base in range(0, patches.count * (m + 1), m + 1)
        ),
        "patch_of_triangle": ([index] * m for index in range(patches.count)),
    }
    if warning:
        document["warning"] = warning
    out = io.BytesIO()
    for piece in stream(document, 1):
        out.write(piece.encode())
    out.write(b"\n")
    return out.getvalue()
