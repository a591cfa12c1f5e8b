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

import json
from dataclasses import dataclass

from .errors import BadProjectionError, UnsupportedFormatError
from .paths import JordanPath
from .reflection import (
    ReflectionClosure,
    reflection_closure,
    reflection_generators,
)

__all__ = [
    "ConeDisk",
    "Patch",
    "PatchSet",
    "VertexIncidence",
    "TorusMesh",
    "cone_disk",
    "expand_patches",
    "vertex_incidence",
    "torus_mesh",
    "export_mesh",
]


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

    The identity element reproduces the original disk in the base cube;
    patch anchors coincide with the filled-cube map.
    """
    disk = cone_disk(path)
    if closure is None:
        closure = reflection_closure(reflection_generators(path))
    n = path.dim
    patches = []
    for index, element in enumerate(closure.elements):
        anchor = element.vector
        flips = element.flips
        signs = tuple(-1 if (flips >> k) & 1 else 1 for k in range(n))
        offset = tuple(2 * a for a in anchor)
        apex = tuple(offset[k] + signs[k] * disk.apex[k] for k in range(n))
        rim = tuple(
            tuple(offset[k] + signs[k] * v[k] for k in range(n)) for v in disk.rim
        )
        patches.append(Patch(index, anchor, flips, apex, rim))
    return PatchSet(n, len(disk.rim), tuple(patches))


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
    counts: dict[tuple[int, ...], int] = {}
    for patch in patches.patches:
        for vertex in patch.rim_wrapped():
            counts[vertex] = counts.get(vertex, 0) + 1
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
) -> bytes:
    """Serialize the patch set.

    OBJ: one group per patch, anchor-placed coordinates printed as halves
    with one fractional digit; the effective dimension after dropping the
    ``projection`` axes must be 3.  JSON: the full-dimensional exact
    torus mesh (doubled integer coordinates, mod 8); no projection
    applies.  Non-embedded surfaces carry a warning in either format.
    """
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
    document = {
        "dim": mesh.dim,
        "vertices": [list(v) for v in mesh.vertices],
        "triangles": [list(t) for t in mesh.triangles],
        "patch_of_triangle": list(mesh.patch_of_triangle),
    }
    if warning:
        document["warning"] = warning
    return (json.dumps(document, indent=1) + "\n").encode()
