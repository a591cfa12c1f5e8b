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
The composition imports the group layers (:mod:`cubeloops.groups`,
:mod:`cubeloops.reflection`) when it runs, so this module loads
:mod:`cubeloops.paths` alone.
"""

from __future__ import annotations

from typing import NamedTuple

from .paths import JordanPath, _read_walk, _Reading

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


def _row_reduce(rows: list[int], dim: int) -> tuple[int, ...]:
    """Fully reduced GF(2) echelon basis of rows in ``dim`` bits, sorted
    descending (canonical).

    Each row is reduced against a list of pivots indexed by leading bit
    and, if anything is left, becomes the pivot of its own leading bit.
    Once ``dim`` pivots are set the rows span GF(2)^dim, whose fully
    reduced basis is the identity whatever the rows left unread, so the
    reduction stops there.  Otherwise one back-substitution pass, in
    increasing order of leading bit, clears every pivot's bit from the
    higher pivots.
    """
    pivots = [0] * dim
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots[top]
            if not pivot:
                pivots[top] = row
                rank += 1
                if rank == dim:
                    return tuple(1 << k for k in range(dim - 1, -1, -1))
                break
            row ^= pivot
    basis: list[tuple[int, int]] = []
    for top, row in enumerate(pivots):
        if row:
            for bit, lower in basis:
                if row >> bit & 1:
                    row ^= lower
            basis.append((top, row))
    return tuple(row for _, row in reversed(basis))


class TranslationLattice(NamedTuple):
    """A subgroup of the even translation classes, halved to GF(2)^dim.

    ``rows`` is the unique fully reduced echelon basis (descending), so
    equality of the tuple (dim, rows) is subgroup equality.  The
    subgroup's order is 2**rank.
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
    times overall).  Raises ValueError for an edge paired with itself or
    for two edges in different directions.
    """
    labels = path.word.labels
    m = len(labels)
    if i == j:
        raise ValueError(f"edge {i} paired with itself")
    beta = labels[i]
    if labels[j] != beta:
        raise ValueError(
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


def pair_translation_lattice(path: JordanPath) -> TranslationLattice:
    """Subgroup generated by pairing every edge with its direction's first edge.

    One pass over the trail (``paths._read_walk``): a direction's first
    edge records its vertex (its own row would be zero) and every later
    edge adds its row.  The reduction stops at full rank
    (:func:`_row_reduce`), which most census classes reach."""
    return _pair_lattice(path.dim, _read_walk(path.word.labels, path.vertex_masks))


def _pair_lattice(dim: int, reading: _Reading) -> TranslationLattice:
    return TranslationLattice(dim, _row_reduce(reading.rows, dim))


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
    from .groups import compose_quotient, quotient_identity
    from .reflection import reflection_generators

    gens = reflection_generators(path)
    base: dict[int, int] = {}
    for i, d in enumerate(path.word.labels):
        base.setdefault(d, i)
    element = quotient_identity(path.dim)
    for d in sorted(base):
        element = compose_quotient(element, gens[base[d]])
    return element.vector


def even_lattice_from_pair(
    pair: TranslationLattice, product: int
) -> TranslationLattice:
    """The even translation lattice, given a walk's pair lattice and its
    direction-product row (``paths._Reading``).

    Equals the pair lattice for even dimension; for odd dimension the
    product row is adjoined (it may or may not already lie in the pair
    lattice — that dichotomy is the orientability test).  A pair lattice
    of full rank holds every row already.
    """
    if pair.dim % 2 == 0 or pair.rank == pair.dim:
        return pair
    return TranslationLattice(pair.dim, _row_reduce([*pair.rows, product], pair.dim))


def even_translation_lattice(path: JordanPath) -> TranslationLattice:
    """The full group of even translations mapping the surface to itself."""
    reading = _read_walk(path.word.labels, path.vertex_masks)
    return even_lattice_from_pair(_pair_lattice(path.dim, reading), reading.product)
