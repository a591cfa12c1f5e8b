"""Reference implementations that check the production path; tests only.

The production modules decide everything in the finite quotient group and
from vertex masks.  The forms here compute the same facts another way, so
the tests can compare the two:

- the ambient group of isometries x |-> v + (-1)^rho x of R^n, its
  projection to the quotient, and the edge rotations built in it
  independently of :func:`cubeloops.reflection.reflection_generators`;
- the rotations about every edge of the cube, and the witness words that
  compose to a translation by four along one axis;
- even translation lattices spanned from explicit vectors, the all-pairs
  lattice from the arc walk, and lattice membership;
- row reduction by inserting each row into a fully reduced basis, the
  reference for the pivot-table ``cubeloops.lattice._row_reduce``;
- the canonicity test on a whole word, the bridge between the census
  walk's profile comparison ``cubeloops.paths._is_least_rotation`` and
  ``canonicalize``;
- the JSON mesh document built whole from the closure's action on the
  cone disk, the reference for the patch-by-patch writer of
  ``cubeloops.geometry.export_mesh``;
- the filled-cube counts keyed by each element's vector, the reference
  for the packed-lane count of ``cubeloops.reflection.filled_cubes``.

No production module imports this one, and ``import cubeloops`` does not
load it.

Ambient composition follows from substituting one map into the other:

    (u, rho) o (v, sigma)  =  (u + (-1)^rho v, rho + sigma)

with the translation parts added over Z (sign-adjusted coordinatewise) and
the flip patterns added over Z_2.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import Iterator, NamedTuple

from .errors import CubeLoopsError, InternalInvariantError
from .geometry import cone_disk
from .groups import QuotientElement, _pack, in_flip_subgroup
from .lattice import TranslationLattice, parallel_pair_translation
from .paths import JordanPath, _is_least_rotation, _repeat_profile
from .reflection import ReflectionClosure, reflection_closure, reflection_generators

__all__ = [
    "BadVectorError",
    "WitnessNotFoundError",
    "AmbientElement",
    "ambient_identity",
    "compose_ambient",
    "inverse_ambient",
    "project_to_quotient",
    "flip_vector",
    "edge_rotation_flips",
    "cube_edge_generators",
    "apply_doubled",
    "ambient_generators",
    "four_translation_witness",
    "halve_even_vector",
    "row_reduce_reference",
    "span_lattice",
    "all_pairs_lattice",
    "lattice_contains",
    "is_canonical",
    "mesh_document",
    "filled_cubes_reference",
]


class BadVectorError(CubeLoopsError, ValueError):
    """A lattice membership query received a vector with an odd coordinate."""


class WitnessNotFoundError(InternalInvariantError):
    """No short translation witness exists where theory guarantees one."""


# ---------------------------------------------------------------------------
# the ambient group


def edge_rotation_flips(dim: int, direction: int) -> int:
    """Flip pattern of the half-turn about a cube edge in the given direction.

    The rotation fixes the edge line, so every coordinate except the edge
    direction changes sign.  Directions are 1-based.
    """
    if not 1 <= direction <= dim:
        raise ValueError(f"direction {direction} out of range 1..{dim}")
    return ((1 << dim) - 1) ^ (1 << (direction - 1))


def flip_vector(dim: int, flips: int) -> tuple[int, ...]:
    """Expand a flip mask into a 0/1 vector, coordinate order."""
    return tuple((flips >> i) & 1 for i in range(dim))


class AmbientElement(NamedTuple):
    """An isometry x |-> translation + (-1)^flips x with integer translation."""

    translation: tuple[int, ...]
    flips: int

    @property
    def dim(self) -> int:
        return len(self.translation)

    def apply(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a point (any coordinate scale where the translation is exact)."""
        return tuple(
            t + (-p if (self.flips >> i) & 1 else p)
            for i, (t, p) in enumerate(zip(self.translation, point))
        )


def ambient_identity(dim: int) -> AmbientElement:
    return AmbientElement((0,) * dim, 0)


def compose_ambient(a: AmbientElement, b: AmbientElement) -> AmbientElement:
    """a o b, i.e. apply b first, then a."""
    if a.dim != b.dim:
        raise ValueError(f"dimensions differ: {a.dim} vs {b.dim}")
    translation = tuple(
        u + (-v if (a.flips >> i) & 1 else v)
        for i, (u, v) in enumerate(zip(a.translation, b.translation))
    )
    return AmbientElement(translation, a.flips ^ b.flips)


def inverse_ambient(a: AmbientElement) -> AmbientElement:
    # (v, rho)^-1 = (-(-1)^rho v, rho): solving v + (-1)^rho x = 0.
    translation = tuple(
        -t if not (a.flips >> i) & 1 else t for i, t in enumerate(a.translation)
    )
    return AmbientElement(translation, a.flips)


def project_to_quotient(a: AmbientElement) -> QuotientElement:
    """Reduce an ambient element mod 4.  A group homomorphism on its domain."""
    flips = 0
    for i, t in enumerate(a.translation):
        if t % 2:
            flips |= 1 << i
    if flips != a.flips or not in_flip_subgroup(a.dim, a.flips):
        raise ValueError(
            "element lies outside the subgroup on which the quotient is defined "
            f"(translation {a.translation}, flips {flip_vector(a.dim, a.flips)})"
        )
    return QuotientElement(a.dim, _pack(a.translation))


def apply_doubled(
    element: QuotientElement, point: tuple[int, ...]
) -> tuple[int, ...]:
    """Image of a doubled-coordinate point on the doubled torus grid Z_8^n."""
    vec = element.vector
    return tuple(
        (2 * vec[i] + (-point[i] if vec[i] % 2 else point[i])) % 8
        for i in range(element.dim)
    )


def cube_edge_generators(dim: int) -> tuple[QuotientElement, ...]:
    """Quotient rotations about *all* edges of the unit cube.

    One generator per edge: the translation vanishes along the edge
    direction and is +-1 (i.e. 1 or 3 mod 4) in every other coordinate,
    matching the midpoint of the edge doubled.  There are n * 2^(n-1).
    """
    out = []
    for direction in range(1, dim + 1):
        for signs in product((1, 3), repeat=dim - 1):
            it: Iterator[int] = iter(signs)
            vec = tuple(0 if i == direction - 1 else next(it) for i in range(dim))
            out.append(QuotientElement(dim, _pack(vec)))
    return tuple(out)


# ---------------------------------------------------------------------------
# a loop's edge rotations in the ambient group


def ambient_generators(path: JordanPath) -> tuple[AmbientElement, ...]:
    """The m edge rotations of a validated loop, as ambient isometries.

    Edge i runs from walk vertex i along axis d = word label i.  Doubling
    its midpoint gives the translation: 0 on the edge's own axis, +1 where
    the vertex coordinate is +1/2 and -1 where it is -1/2 on every other
    axis.  The flip pattern reverses every axis except the edge's own.
    """
    n = path.dim
    out = []
    for i, d in enumerate(path.word.labels):
        mask = path.vertex_masks[i]
        translation = tuple(
            0 if k == d - 1 else (-1 if (mask >> k) & 1 else 1) for k in range(n)
        )
        out.append(AmbientElement(translation, edge_rotation_flips(n, d)))
    return tuple(out)


def four_translation_witness(path: JordanPath, beta: int) -> tuple[int, ...]:
    """Edge indices (0-based, at most 4) whose ambient rotations compose,
    left to right, to a pure translation of +-4 along axis ``beta``.

    The direct construction takes any edge in direction ``beta`` and
    alternates its two neighboring edges: the neighbors' half-turns
    combine so that every coordinate cancels except the chosen axis,
    which accumulates to +-4.  A bounded search (words up to length 4
    over all edge rotations) backs this up; the search failing would
    contradict the group structure, so it raises an internal error.
    """
    if not 1 <= beta <= path.dim:
        raise ValueError(f"direction {beta} out of range 1..{path.dim}")
    gens = ambient_generators(path)
    m = len(gens)
    first = path.word.labels.index(beta)
    f = (first + 1) % m
    g = (first - 1) % m
    for word in ((f, g, f, g), (g, f, g, f)):
        if _is_axis_translation(_compose_word(path.dim, gens, word), beta):
            return word
    for depth in range(1, 5):
        for word in product(range(m), repeat=depth):
            if _is_axis_translation(_compose_word(path.dim, gens, word), beta):
                return word
    raise WitnessNotFoundError(
        f"no edge-rotation word of length <= 4 composes to a +-4 translation "
        f"along axis {beta}; the reflection group structure is broken"
    )


def _compose_word(
    dim: int, gens: tuple[AmbientElement, ...], word: tuple[int, ...]
) -> AmbientElement:
    result = ambient_identity(dim)
    for index in word:
        result = compose_ambient(result, gens[index])
    return result


def _is_axis_translation(element: AmbientElement, beta: int) -> bool:
    if element.flips:
        return False
    expected = tuple(
        4 if k == beta - 1 else 0 for k in range(len(element.translation))
    )
    return element.translation in (
        expected,
        tuple(-t for t in expected),
    )


# ---------------------------------------------------------------------------
# translation lattices from explicit vectors


def halve_even_vector(vector: tuple[int, ...]) -> int:
    """Pack a vector with entries in {0,2} into a bitmask (entry 2 -> bit 1)."""
    mask = 0
    for k, entry in enumerate(vector):
        if entry not in (0, 2):
            raise BadVectorError(
                f"coordinate {entry} at axis {k + 1} is not an even class (0 or 2)"
            )
        if entry:
            mask |= 1 << k
    return mask


def _leading_bit(row: int) -> int:
    return 1 << (row.bit_length() - 1)


def row_reduce_reference(rows: list[int]) -> tuple[int, ...]:
    """Fully reduced GF(2) echelon basis, sorted descending (canonical):
    each row is reduced by the basis so far and then clears its own
    leading bit from every basis row."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row & _leading_bit(b):
                row ^= b
        if row:
            basis = [b ^ row if b & _leading_bit(row) else b for b in basis]
            basis.append(row)
    return tuple(sorted(basis, reverse=True))


def span_lattice(dim: int, vectors: list[tuple[int, ...]]) -> TranslationLattice:
    """The subgroup generated by the given even mod-4 vectors."""
    rows = [halve_even_vector(v) for v in vectors]
    return TranslationLattice(dim, row_reduce_reference(rows))


def all_pairs_lattice(path: JordanPath) -> TranslationLattice:
    """Subgroup generated by every parallel pair, from the arc walk."""
    labels = path.word.labels
    vectors = []
    for i, j in combinations(range(len(labels)), 2):
        if labels[i] == labels[j]:
            vectors.append(parallel_pair_translation(path, i, j))
    return span_lattice(path.dim, vectors)


def lattice_contains(lattice: TranslationLattice, vector: tuple[int, ...]) -> bool:
    """Membership of a vector with entries in {0,2} (mod-4 classes)."""
    residue = halve_even_vector(tuple(v % 4 for v in vector))
    for b in lattice.rows:
        if residue & _leading_bit(b):
            residue ^= b
    return residue == 0


# ---------------------------------------------------------------------------
# canonical words and meshes, whole


def is_canonical(labels: tuple[int, ...]) -> bool:
    """Whether :func:`cubeloops.paths.canonicalize` fixes the word, without
    building the canonical form.

    Domain: a closed word (every label count even) in first-occurrence
    form (labels introduced as 1, 2, 3, ... in order), such as every closed
    walk of the census.  There it equals
    ``canonicalize(DirectionWord(labels, n)).labels == labels``: the word
    is its own relabelling, so it is fixed exactly when no rotation of it
    or of its reversal has a smaller repeat profile: a profile fixes its
    relabelled word (``cubeloops.paths`` module docstring).  Every such
    profile holds the same multiset of cyclic gaps, so only rotations
    starting with the smallest gap can win, and the word itself must start
    with it.  The rotation comparison is ``paths._is_least_rotation``.
    The census walk calls it directly, on the profile it keeps, rotated to
    start at the closed walk's smallest gap, and builds the relabelled
    word only for a walk that passes.
    """
    profile = _repeat_profile(labels)
    if min(profile) < profile[0]:
        return False
    return _is_least_rotation(profile)


def mesh_document(path: JordanPath) -> dict:
    """The document ``export_mesh(..., format="json")`` writes, built whole.

    Every reflection-closure element is applied to the cone disk's apex
    (the origin) and rim on the doubled torus; each copy adds its fan
    triangles and their owner, the element's position.  The warning
    appears when some wrapped rim vertex meets eight or more patches.
    """
    rim = cone_disk(path)
    m = len(rim)
    vertices: list[tuple[int, ...]] = []
    triangles: list[tuple[int, int, int]] = []
    owners: list[int] = []
    rims: Counter[tuple[int, ...]] = Counter()
    closure = reflection_closure(reflection_generators(path))
    for index, element in enumerate(closure.elements):
        base = len(vertices)
        placed = [apply_doubled(element, vertex) for vertex in rim]
        rims.update(placed)
        vertices += [apply_doubled(element, (0,) * path.dim), *placed]
        triangles += [(base, base + 1 + k, base + 1 + (k + 1) % m) for k in range(m)]
        owners += [index] * m
    document: dict = {
        "dim": path.dim,
        "vertices": vertices,
        "triangles": triangles,
        "patch_of_triangle": owners,
    }
    worst = max(rims.values())
    if worst >= 8:
        document["warning"] = (
            f"surface has self-intersections: {worst} patch boundaries meet at a vertex"
        )
    return document


def filled_cubes_reference(closure: ReflectionClosure) -> dict[tuple[int, ...], int]:
    """The patches in each 2x...x2 block of the 4-periodic torus, counted
    from every element's vector: the block's anchor is the vector with
    each coordinate's 1-bit cleared.  Every block is a key, in
    ``product((0, 2), repeat=n)`` order, an empty one with count 0."""
    counts = dict.fromkeys(product((0, 2), repeat=closure.dim), 0)
    for element in closure.elements:
        counts[tuple(coord & 2 for coord in element.vector)] += 1
    return counts
