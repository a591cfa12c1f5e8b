"""Translation lattices of the periodic surface, read off the vertex trail.

Composing the half-turns about two parallel loop edges yields a pure
translation whose entries are all 0 or 2 modulo 4; these translations
generate a subgroup of the even classes (2Z mod 4)^n that controls whether
the reflected surface is embedded and orientable.

Since every entry is 0 or 2, halving identifies the group (2Z mod 4)^n with
the vector space GF(2)^n.  Subgroups become row spaces, stored here in
fully reduced row-echelon form — a canonical basis, so two lattices are
equal as subgroups exactly when their stored rows are equal — and order and
membership become rank computations over machine integers.

Both generators are read off the vertex masks ``v_i`` (the vertex before
edge i).  For parallel edges i < j in direction d the halved translation is
``(v_i ^ v_j) & ~bit(d)``: the masks differ in exactly the directions used
an odd number of times from edge i up to edge j, which with the common axis
cleared is the parity of the edges strictly between them.  For odd
dimension the product of the rotations about each direction's first edge
is a pure even translation with halved row ``XOR_d v_first(d) & ~bit(d)``;
whether it lies in the pair lattice decides orientability.  The arc walk
(:func:`parallel_pair_translation`) and the rotation composition
(:func:`direction_product_translation`) remain as independent cross-checks;
lattices spanned from explicit vectors live in :mod:`cubeloops.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotParallelError, SameEdgeError
from .groups import compose_quotient, quotient_identity
from .paths import JordanPath
from .reflection import reflection_generators

__all__ = [
    "TranslationLattice",
    "parallel_pair_translation",
    "pair_translation_lattice",
    "direction_product_translation",
    "even_translation_lattice",
    "even_lattice_from_pair",
    "double_bit_vector",
]


def double_bit_vector(mask: int, dim: int) -> tuple[int, ...]:
    """Expand a halved row into a mod-4 vector with entries in {0,2}."""
    return tuple(2 if (mask >> k) & 1 else 0 for k in range(dim))


def _row_reduce(rows: list[int]) -> tuple[int, ...]:
    """Fully reduced GF(2) echelon basis, sorted descending (canonical).

    Each row is reduced against a table of pivots keyed by leading bit
    and, if anything is left, becomes the pivot of its own leading bit.
    One back-substitution pass, in increasing order of leading bit, then
    clears every pivot's bit from the higher pivots.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    basis: list[tuple[int, int]] = []
    for top in sorted(pivots):
        row = pivots[top]
        for bit, lower in basis:
            if row >> bit & 1:
                row ^= lower
        basis.append((top, row))
    return tuple(row for _, row in reversed(basis))


@dataclass(frozen=True)
class TranslationLattice:
    """A subgroup of the even translation classes, halved to GF(2)^dim.

    ``rows`` is the unique fully reduced echelon basis (descending), so
    dataclass equality is subgroup equality.  The subgroup's order is
    2**rank.
    """

    dim: int
    rows: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def order(self) -> int:
        return 1 << len(self.rows)

    def basis_vectors(self) -> tuple[tuple[int, ...], ...]:
        """Basis as mod-4 vectors with entries in {0,2}."""
        return tuple(double_bit_vector(row, self.dim) for row in self.rows)


def parallel_pair_translation(
    path: JordanPath, i: int, j: int
) -> tuple[int, ...]:
    """Translation produced by the half-turns about parallel edges i and j.

    Edges are 0-based word positions and must share a direction.  The
    entry on their common axis is 0; on any other axis it is 2 exactly
    when an odd number of edges in that direction lie strictly between
    the two (counted along the forward arc from i to j — the parities of
    the two arcs agree because every direction is used an even number of
    times overall).
    """
    labels = path.word.labels
    m = len(labels)
    if i == j:
        raise SameEdgeError(f"edge {i} paired with itself")
    beta = labels[i]
    if labels[j] != beta:
        raise NotParallelError(
            f"edges {i} (direction {labels[i]}) and {j} (direction {labels[j]}) "
            "are not parallel"
        )
    counts = [0] * (path.dim + 1)
    k = (i + 1) % m
    while k != j:
        counts[labels[k]] += 1
        k = (k + 1) % m
    if __debug__:
        backward = [0] * (path.dim + 1)
        k = (j + 1) % m
        while k != i:
            backward[labels[k]] += 1
            k = (k + 1) % m
        assert all(
            (counts[d] - backward[d]) % 2 == 0 for d in range(1, path.dim + 1)
        ), "arc parity mismatch: direction counts are not all even"
    return tuple(
        0 if d == beta else 2 * (counts[d] % 2) for d in range(1, path.dim + 1)
    )


def _base_edges(path: JordanPath) -> dict[int, int]:
    """The first edge index of every direction in the word."""
    base: dict[int, int] = {}
    for i, d in enumerate(path.word.labels):
        base.setdefault(d, i)
    return base


def pair_translation_lattice(path: JordanPath) -> TranslationLattice:
    """Subgroup generated by pairing every edge with its direction's first edge."""
    base = _base_edges(path)
    masks = path.vertex_masks
    rows = [
        (masks[i] ^ masks[base[d]]) & ~(1 << (d - 1))
        for i, d in enumerate(path.word.labels)
    ]
    return TranslationLattice(path.dim, _row_reduce(rows))


def direction_product_translation(path: JordanPath) -> tuple[int, ...]:
    """Translation part of the product of one edge rotation per direction.

    Composes the rotations about each direction's first edge in the
    quotient group (oracle for the vertex-mask row).  The quotient group
    is abelian, so the order of the factors does not matter.  For odd
    dimension the flips cancel and the result is a pure translation with
    even entries — the extra generator deciding orientability.  For even
    dimension the product is not a translation and its vector has odd
    entries; it is returned for inspection but is not an even translation.
    """
    gens = reflection_generators(path)
    base = _base_edges(path)
    element = quotient_identity(path.dim)
    for d in sorted(base):
        element = compose_quotient(element, gens[base[d]])
    return element.vector


def even_lattice_from_pair(
    path: JordanPath, pair: TranslationLattice
) -> TranslationLattice:
    """The even translation lattice, given the path's pair lattice.

    Equals the pair lattice for even dimension; for odd dimension the
    direction-product row is adjoined (it may or may not already lie in
    the pair lattice — that dichotomy is the orientability test).
    """
    if path.dim % 2 == 0:
        return pair
    masks = path.vertex_masks
    product = 0
    for d, i in _base_edges(path).items():
        product ^= masks[i] & ~(1 << (d - 1))
    return TranslationLattice(path.dim, _row_reduce([*pair.rows, product]))


def even_translation_lattice(path: JordanPath) -> TranslationLattice:
    """The full group of even translations mapping the surface to itself."""
    return even_lattice_from_pair(path, pair_translation_lattice(path))
