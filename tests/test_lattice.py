"""Even-translation subgroups extracted from parallel edge pairs."""

from __future__ import annotations

import random

import pytest
from conftest import parity_mask, random_valid_path

from cubeloops import (
    EnumerationQuery,
    enumerate_paths,
    parse_word,
    validate,
)
from cubeloops.lattice import (
    _row_reduce,
    direction_product_translation,
    even_lattice_from_pair,
    even_translation_lattice,
    pair_translation_lattice,
    parallel_pair_translation,
)
from cubeloops.oracles import (
    BadVectorError,
    all_pairs_lattice,
    basis_vectors,
    compose_quotient,
    double_bit_vector,
    halve_even_vector,
    lattice_contains,
    quotient_from_vector,
    quotient_identity,
    row_reduce_reference,
    span_lattice,
)
from cubeloops.reflection import reflection_closure, reflection_generators

# published even-translation subgroups for the six 8-edge classes
REFERENCE_SPANS_N4 = {
    "12314243": [(0, 2, 2, 0), (2, 0, 2, 2), (2, 2, 0, 0), (0, 2, 0, 0)],
    "12314342": [(0, 2, 2, 0), (2, 0, 0, 0), (2, 0, 0, 2), (0, 0, 2, 0)],
    "12341234": [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0)],
    "12314234": [(0, 2, 2, 0), (2, 0, 2, 2)],
    "12314324": [(2, 0, 0, 2), (0, 2, 2, 0)],
    "12321434": [(0, 0, 2, 0), (2, 2, 0, 2)],
}


def test_pair_translation_reference_pairs():
    g1 = validate(parse_word("12314243", 4))
    assert parallel_pair_translation(g1, 0, 3) == (0, 2, 2, 0)
    g6 = validate(parse_word("12321434", 4))
    assert parallel_pair_translation(g6, 2, 6) == (2, 2, 0, 2)
    gp = validate(parse_word("12321232", 3))
    assert parallel_pair_translation(gp, 0, 4) == (0, 0, 2)


def test_pair_translation_rejects_bad_pairs():
    path = validate(parse_word("12314243", 4))
    with pytest.raises(ValueError, match="edge 2 paired with itself"):
        parallel_pair_translation(path, 2, 2)
    with pytest.raises(ValueError, match="are not parallel"):
        parallel_pair_translation(path, 0, 1)


def test_pair_translation_matches_rotation_composition(n3_classes, n4_classes):
    # oracle: composing the two half-turns in the quotient group must give a
    # pure translation whose vector is exactly the combinatorial formula
    for word in (*n3_classes, *n4_classes):
        path = validate(word)
        gens = reflection_generators(path)
        labels = word.labels
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if labels[i] != labels[j]:
                    continue
                product = compose_quotient(gens[i], gens[j])
                assert parity_mask(product) == 0
                assert product.vector == parallel_pair_translation(path, i, j)
                assert parallel_pair_translation(path, j, i) == product.vector


def test_pair_lattice_reference_orders():
    hexagon = validate(parse_word("123123", 3))
    assert pair_translation_lattice(hexagon).order == 4
    g3 = validate(parse_word("12314234", 4))
    assert pair_translation_lattice(g3) == span_lattice(4, [(0, 2, 2, 0), (2, 0, 2, 2)])
    assert pair_translation_lattice(g3).order == 4
    # the staircase family keeps a rank-2 pair lattice in every dimension
    for text, dim in (
        ("123123", 3),
        ("12341243", 4),
        ("1234512543", 5),
        ("123456126543", 6),
    ):
        path = validate(parse_word(text, dim))
        assert pair_translation_lattice(path).order == 4


def test_all_pairs_lattice_equals_base_pair_lattice(
    n3_classes, n4_classes, random_n5_paths
):
    # oracle: the arc walk over every parallel pair spans the same subgroup
    # as the vertex-mask rows against each direction's first edge
    for path in (*map(validate, (*n3_classes, *n4_classes)), *random_n5_paths):
        assert all_pairs_lattice(path) == pair_translation_lattice(path)


def test_prefix_pair_rank_never_falls():
    # the embedded census prunes on this: the pairs with each direction's
    # first edge that lie inside a prefix depend on the prefix alone (here
    # by the arc walk, which never leaves it), so the prefix's lattice is a
    # subgroup of the loop's and its rank only grows, ending at the full rank
    rng = random.Random(404117)
    for dim in range(4, 8):
        for _ in range(12):
            path = random_valid_path(rng, dim)
            final = pair_translation_lattice(path)
            first: dict[int, int] = {}
            rows: list[tuple[int, ...]] = []
            ranks = []
            for j, d in enumerate(path.word.labels):
                if d in first:
                    rows.append(parallel_pair_translation(path, first[d], j))
                else:
                    first[d] = j
                prefix = span_lattice(dim, rows)
                assert all(lattice_contains(final, v) for v in basis_vectors(prefix))
                ranks.append(prefix.rank)
            assert ranks == sorted(ranks)
            assert ranks[-1] == final.rank


def test_even_lattice_matches_composed_direction_product(n3_classes, random_n5_paths):
    # oracle: the vertex-mask direction-product row against the composed
    # edge rotations, adjoined to the arc-walk pair lattice; the pair
    # lattice itself comes back exactly when it already holds that row
    rng = random.Random(70917)
    census = enumerate_paths(EnumerationQuery.create(5, max_length=14))
    paths = [
        *map(validate, (*n3_classes, *census)),
        *random_n5_paths,
        *(random_valid_path(rng, dim) for dim in (7, 9) for _ in range(10)),
    ]
    inside_seen = set()
    for path in paths:
        arcs = all_pairs_lattice(path)
        product = direction_product_translation(path)
        expected = span_lattice(path.dim, [*basis_vectors(arcs), product])
        pair = pair_translation_lattice(path)
        even = even_lattice_from_pair(pair, _product_row(path))
        assert even == expected == even_translation_lattice(path), path.word
        inside = lattice_contains(arcs, product)
        assert (even == pair) == inside, path.word
        inside_seen.add(inside)
    assert inside_seen == {False, True}


def test_direction_product_is_composition_order_independent():
    rng = random.Random(55221)
    for text, dim in (("123123", 3), ("12321232", 3), ("145231425232", 5)):
        path = validate(parse_word(text, dim))
        gens = reflection_generators(path)
        first_edges: dict[int, int] = {}
        for i, d in enumerate(path.word.labels):
            first_edges.setdefault(d, i)
        expected = direction_product_translation(path)
        for _ in range(10):
            order = list(first_edges.values())
            rng.shuffle(order)
            element = quotient_identity(dim)
            for i in order:
                element = compose_quotient(element, gens[i])
            assert element.vector == expected
            assert parity_mask(element) == 0


def test_direction_product_orientability_pins():
    hexagon = validate(parse_word("123123", 3))
    product = direction_product_translation(hexagon)
    assert all(x % 2 == 0 for x in product)
    assert not lattice_contains(pair_translation_lattice(hexagon), product)

    five = validate(parse_word("145231425232", 5))
    assert lattice_contains(
        pair_translation_lattice(five), direction_product_translation(five)
    )


def test_direction_product_even_dimension_is_not_a_translation():
    path = validate(parse_word("12341234", 4))
    product = direction_product_translation(path)
    assert all(x % 2 == 1 for x in product)
    with pytest.raises(BadVectorError):
        lattice_contains(pair_translation_lattice(path), product)


def test_even_lattice_reference_values():
    g1 = validate(parse_word("12314243", 4))
    assert even_translation_lattice(g1).order == 16
    g4 = validate(parse_word("12314324", 4))
    assert even_translation_lattice(g4) == span_lattice(4, [(2, 0, 0, 2), (0, 2, 2, 0)])
    hexagon = validate(parse_word("123123", 3))
    assert even_translation_lattice(hexagon).order == 8
    assert pair_translation_lattice(hexagon).order == 4


def test_even_lattice_matches_published_spans(n4_m8_classes):
    for text, generators in REFERENCE_SPANS_N4.items():
        path = validate(parse_word(text, 4))
        assert even_translation_lattice(path) == span_lattice(4, generators)


def test_contains_reference_memberships():
    g1 = validate(parse_word("12314243", 4))
    lam = even_translation_lattice(g1)
    assert lattice_contains(lam, (0, 0, 0, 0))
    assert lattice_contains(lam, (2, 2, 0, 0))
    g3 = validate(parse_word("12314234", 4))
    lam3 = even_translation_lattice(g3)
    assert not lattice_contains(lam3, (2, 0, 0, 0))
    assert lam3.order == 4
    assert all(lattice_contains(lam3, v) for v in basis_vectors(lam3))
    with pytest.raises(BadVectorError):
        lattice_contains(lam3, (2, 1, 0, 0))


def test_halve_double_roundtrip():
    assert halve_even_vector((2, 0, 2, 0)) == 0b0101
    assert double_bit_vector(0b0101, 4) == (2, 0, 2, 0)
    with pytest.raises(BadVectorError):
        halve_even_vector((2, 3, 0, 0))


def test_odd_dimension_order_dichotomy(n3_classes, random_n5_paths):
    for word in n3_classes:
        path = validate(word)
        lam0 = pair_translation_lattice(path).order
        lam_q = even_translation_lattice(path).order
        assert lam_q in (lam0, 2 * lam0)
    for path in random_n5_paths[:20]:
        lam0 = pair_translation_lattice(path).order
        lam_q = even_translation_lattice(path).order
        assert lam_q in (lam0, 2 * lam0)


def test_even_dimension_orders_agree(n4_m8_classes):
    for word in n4_m8_classes:
        path = validate(word)
        assert even_translation_lattice(path).order == pair_translation_lattice(path).order


def test_lattice_elements_lie_in_reflection_closure(n3_classes, n4_m8_classes):
    # the closure is a group, so containing a basis means containing the lattice
    for word in (*n3_classes, *n4_m8_classes):
        path = validate(word)
        closure = reflection_closure(reflection_generators(path))
        for v in basis_vectors(even_translation_lattice(path)):
            assert quotient_from_vector(v) in closure.elements


def test_row_reduce_matches_reference_on_random_rows():
    rng = random.Random(4410)
    for _ in range(3000):
        dim = rng.randint(1, 16)
        rows = [rng.getrandbits(dim) for _ in range(rng.randint(0, 40))]
        if rows and rng.random() < 0.5:
            rows += [0, *rng.sample(rows, rng.randint(1, len(rows)))]
            rng.shuffle(rows)
        assert _row_reduce(rows, dim) == row_reduce_reference(rows), rows


def _product_row(path) -> int:
    """The direction-product row, XOR of each direction's first vertex."""
    first: dict[int, int] = {}
    for mask, d in zip(path.vertex_masks, path.word.labels):
        first.setdefault(d, mask)
    product = 0
    for d, mask in first.items():
        product ^= mask & ~(1 << (d - 1))
    return product


def _pair_and_even_rows(path):
    # the raw generator rows of pair_translation_lattice and
    # even_lattice_from_pair, before reduction
    masks = path.vertex_masks
    first = {}
    pair = []
    for mask, d in zip(masks, path.word.labels):
        first.setdefault(d, mask)
        pair.append((mask ^ first[d]) & ~(1 << (d - 1)))
    return pair, [*row_reduce_reference(pair), _product_row(path)]


def test_row_reduce_matches_reference_on_census_lattices(
    n3_classes, n4_classes, random_n5_paths
):
    for path in (*map(validate, (*n3_classes, *n4_classes)), *random_n5_paths):
        pair_rows, even_rows = _pair_and_even_rows(path)
        for rows in (pair_rows, even_rows):
            assert _row_reduce(rows, path.dim) == row_reduce_reference(rows), path.word
        assert pair_translation_lattice(path).rows == row_reduce_reference(pair_rows)
        if path.dim % 2:
            expected = row_reduce_reference(even_rows)
            assert even_translation_lattice(path).rows == expected


def test_even_lattice_matches_reference_on_the_n7_census():
    # every pair rank of the 1,542 classes of dimension 7 up to 14 edges
    # falls below 7, so every class adjoins its direction-product row
    census = enumerate_paths(EnumerationQuery.create(7, max_length=14))
    assert len(census) == 1542
    inside_seen = set()
    for path in map(validate, census):
        _, even_rows = _pair_and_even_rows(path)
        pair = pair_translation_lattice(path)
        assert pair.rank < 7, path.word
        even = even_lattice_from_pair(pair, _product_row(path))
        assert even.rows == row_reduce_reference(even_rows), path.word
        inside_seen.add(even == pair)
    assert inside_seen == {False, True}


def test_pair_lattice_matches_reference_on_random_loops():
    # the reduction stops reading rows at full rank; the reference reads
    # them all, so loops of both full and deficient rank are compared
    rng = random.Random(2024)
    ranks = {"full": 0, "deficient": 0}
    for dim in range(3, 9):
        for _ in range(60):
            path = random_valid_path(rng, dim)
            pair_rows, even_rows = _pair_and_even_rows(path)
            pair = pair_translation_lattice(path)
            assert pair.rows == row_reduce_reference(pair_rows), path.word
            even = even_lattice_from_pair(pair, _product_row(path))
            assert even.rows == row_reduce_reference(
                even_rows if dim % 2 else pair_rows
            ), path.word
            ranks["full" if pair.rank == dim else "deficient"] += 1
    assert min(ranks.values()) >= 50, ranks
