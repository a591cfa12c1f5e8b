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
doubled grid modulo 8.  Wrapped (mod 8) coordinates feed the incidence
count and the JSON mesh; OBJ output keeps each patch placed at its anchor
inside one fundamental domain so triangles are not torn by wrap-around.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass

from .errors import BadProjectionError, BudgetExceededError, UnsupportedFormatError
from .groups import flip_subgroup_order
from .jsontext import dumps
from .lattice import TranslationLattice, even_translation_lattice
from .paths import JordanPath
from .reflection import ReflectionClosure, reflection_closure, reflection_generators

__all__ = [
    "ConeDisk",
    "Patch",
    "PatchSet",
    "VertexIncidence",
    "TorusMesh",
    "PATCH_COORDINATE_BUDGET",
    "closure_within_budget",
    "cone_disk",
    "expand_patches",
    "vertex_incidence",
    "torus_mesh",
    "export_mesh",
]


# Most doubled coordinates the patches of one surface may place: about
# 150 MB peak RSS for patches and incidence counts, 500 MB for a JSON
# export (scaled from sharp n=10, Python 3.11).  The unforced verify mode
# places at most 1.6 million (dimension 6).
PATCH_COORDINATE_BUDGET = 1 << 22

# Mesh array items a JSON export turns into text at once.  Writing whole
# arrays raised the tracemalloc peak (Python 3.11) of exporting a 12-edge
# loop in dimension 5 from 1.18 to 1.40 MB; slices of 64 keep it at 1.16.
_JSON_SLICE = 64


def closure_within_budget(
    path: JordanPath, lattice: TranslationLattice | None = None
) -> ReflectionClosure:
    """The reflection closure, refused up front when its patches would
    place over PATCH_COORDINATE_BUDGET coordinates: m + 1 points in R^n per
    element, flip-subgroup order times even ``lattice`` order elements."""
    n = path.dim
    if lattice is None:
        lattice = even_translation_lattice(path)
    order = flip_subgroup_order(n) * lattice.order
    coordinates = order * (path.length + 1) * n
    if coordinates > PATCH_COORDINATE_BUDGET:
        raise BudgetExceededError(
            f"{order} patches would place {coordinates} coordinates, over "
            f"the budget of {PATCH_COORDINATE_BUDGET}"
        )
    return reflection_closure(reflection_generators(path))


@dataclass(frozen=True)
class ConeDisk:
    """Triangle fan over the loop from the cube center, doubled coordinates.

    The apex is the origin; rim vertices are the walk vertices (entries
    +-1 when doubled).  Triangle k joins the apex to rim k and rim k+1,
    so the fan's boundary is exactly the loop.
    """

    dim: int
    apex: tuple[int, ...]
    rim: tuple[tuple[int, ...], ...]

    @property
    def triangle_count(self) -> int:
        return len(self.rim)


def cone_disk(path: JordanPath) -> ConeDisk:
    n = path.dim
    rim = tuple(
        tuple(-1 if (mask >> k) & 1 else 1 for k in range(n))
        for mask in path.vertex_masks
    )
    return ConeDisk(n, (0,) * n, rim)


@dataclass(frozen=True)
class Patch:
    """One placed copy of the cone disk.

    ``anchor`` is the closure element's translation vector in {0,1,2,3}^n
    (the center of the carrying cube); coordinates are doubled and
    anchor-placed (not wrapped), so they lie in [-1, 7].
    """

    index: int
    anchor: tuple[int, ...]
    flips: int
    apex: tuple[int, ...]
    rim: tuple[tuple[int, ...], ...]

    def rim_wrapped(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(c % 8 for c in v) for v in self.rim)

    def apex_wrapped(self) -> tuple[int, ...]:
        return tuple(c % 8 for c in self.apex)


@dataclass(frozen=True)
class PatchSet:
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
    loop and every patch is zipped together from n of them.  The identity
    element reproduces the original disk in the base cube; patch anchors
    coincide with the filled-cube map.
    """
    disk = cone_disk(path)
    if closure is None:
        closure = closure_within_budget(path)
    placed = [
        [tuple(2 * a - x if a % 2 else 2 * a + x for x in column) for a in range(4)]
        for column in zip(disk.apex, *disk.rim)
    ]
    patches = []
    for index, element in enumerate(closure.elements):
        anchor = element.vector
        apex, *rim = zip(*(placed[k][a] for k, a in enumerate(anchor)))
        patches.append(Patch(index, anchor, element.flips, apex, tuple(rim)))
    return PatchSet(path.dim, len(disk.rim), tuple(patches))


@dataclass(frozen=True)
class VertexIncidence:
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
    # then fold the distinct ones onto the torus.
    placed = Counter(vertex for patch in patches.patches for vertex in patch.rim)
    counts: dict[tuple[int, ...], int] = {}
    for vertex, count in placed.items():
        wrapped = tuple(c % 8 for c in vertex)
        counts[wrapped] = counts.get(wrapped, 0) + count
    worst = max(counts.values(), default=0)
    return VertexIncidence(worst, worst < 8, counts)


@dataclass(frozen=True)
class TorusMesh:
    """Flat triangle mesh of all patches with wrapped exact coordinates.

    Vertices are doubled integers reduced mod 8 (halve for geometric
    positions in [0,4)); triangles index into the vertex list; each
    triangle knows its patch.
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]
    triangles: tuple[tuple[int, int, int], ...]
    patch_of_triangle: tuple[int, ...]


def torus_mesh(patches: PatchSet) -> TorusMesh:
    vertices: list[tuple[int, ...]] = []
    triangles: list[tuple[int, int, int]] = []
    owners: list[int] = []
    m = patches.rim_size
    for patch in patches.patches:
        base = len(vertices)
        vertices.append(patch.apex_wrapped())
        vertices.extend(patch.rim_wrapped())
        for k in range(m):
            triangles.append((base, base + 1 + k, base + 1 + (k + 1) % m))
            owners.append(patch.index)
    return TorusMesh(patches.dim, tuple(vertices), tuple(triangles), tuple(owners))


def _check_projection(
    dim: int, projection: tuple[int, ...] | None, needed: int
) -> tuple[int, ...]:
    """Validate dropped axes and return the kept axis indices (0-based)."""
    dropped = tuple(projection or ())
    for axis in dropped:
        if not 1 <= axis <= dim:
            raise BadProjectionError(f"projection axis {axis} out of range 1..{dim}")
    if len(set(dropped)) != len(dropped):
        raise BadProjectionError(f"projection axes repeat: {dropped}")
    kept = tuple(k for k in range(dim) if (k + 1) not in dropped)
    if len(kept) != needed:
        raise BadProjectionError(
            f"dropping axes {dropped or '()'} leaves {len(kept)} coordinates; "
            f"OBJ output needs exactly {needed}"
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
    if incidence is None:
        incidence = vertex_incidence(patches)
    warning = None
    if not incidence.embedded:
        warning = (
            "surface has self-intersections: "
            f"{incidence.max_multiplicity} patch boundaries meet at a vertex"
        )
    if format == "obj":
        kept = _check_projection(patches.dim, projection, 3)
        return _render_obj(patches, kept, warning)
    if format == "json":
        if projection:
            raise BadProjectionError(
                "projection applies to OBJ output only; JSON is always "
                "full-dimensional"
            )
        return _render_json(patches, warning)
    raise UnsupportedFormatError(f"unknown mesh format {format!r} (use obj or json)")


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
    for patch in patches.patches:
        lines.append(f"g patch_{patch.index}")
        for vertex in (patch.apex, *patch.rim):
            coords = " ".join(_half_str(vertex[k]) for k in kept)
            lines.append(f"v {coords}")
        base = patch.index * (m + 1) + 1  # OBJ indices are 1-based
        for k in range(m):
            lines.append(f"f {base} {base + 1 + k} {base + 1 + (k + 1) % m}")
    lines.append("")
    return "\n".join(lines).encode()


def _half_str(doubled: int) -> str:
    whole, rem = divmod(doubled, 2)
    return f"{whole}.0" if rem == 0 else f"{doubled / 2:.1f}"


def _render_json(patches: PatchSet, warning: str | None) -> bytes:
    mesh = torus_mesh(patches)
    # json writes tuples as arrays, so the mesh needs no list copies
    document = {
        "dim": mesh.dim,
        "vertices": mesh.vertices,
        "triangles": mesh.triangles,
        "patch_of_triangle": mesh.patch_of_triangle,
    }
    if warning:
        document["warning"] = warning
    # the text of json.dumps(document, indent=1), written a slice of each
    # mesh array at a time: the arrays are nearly all of the output, and
    # the text of a whole array, with its parts and its encoded bytes,
    # would hold several times its size at once
    out = io.BytesIO()
    separator = "{\n "
    for key, value in document.items():
        out.write(f"{separator}{dumps(key, 1)}: ".encode())
        separator = ",\n "
        if not (isinstance(value, tuple) and value):
            out.write(dumps(value, 1, level=1).encode())
            continue
        close = "\n ]"
        item_separator = "["
        for start in range(0, len(value), _JSON_SLICE):
            # a slice's text is "[" + its items + close: splice the items
            text = dumps(value[start : start + _JSON_SLICE], 1, level=1)
            out.write(f"{item_separator}{text[1 : -len(close)]}".encode())
            item_separator = ","
        out.write(close.encode())
    out.write(b"\n}\n")
    return out.getvalue()
