"""Edge rotations, their closure group, filled cubes, translation witnesses."""

from __future__ import annotations

import itertools
import random

from conftest import parity_mask, random_valid_path

from cubeloops import (
    EnumerationQuery,
    decide_embedded,
    enumerate_paths,
    parse_word,
    validate,
)
from cubeloops.groups import (
    compose_quotient,
    flip_subgroup_order,
    quotient_identity,
)
from cubeloops.oracles import (
    ambient_generators,
    ambient_identity,
    compose_ambient,
    filled_cubes_reference,
    four_translation_witness,
)
from cubeloops.reflection import (
    filled_cubes,
    reflection_closure,
    reflection_generators,
)


def test_generators_first_edge_of_hexagonal_loop():
    path = validate(parse_word("123123", 3))
    gens = reflection_generators(path)
    assert len(gens) == 6
    first = ambient_generators(path)[0]
    assert first.translation == (0, 1, 1)
    assert first.flips == 0b110
    assert gens[0].vector == (0, 1, 1)


def test_generators_track_walk_vertices():
    path = validate(parse_word("12314234", 4))
    gens = ambient_generators(path)
    masks = path.vertex_masks
    for i, d in enumerate(path.word.labels):
        mask = masks[i]
        # edge i runs from vertex i to vertex i+1 along its own axis
        assert mask ^ masks[(i + 1) % len(masks)] == 1 << (d - 1)
        elem = gens[i]
        assert elem.translation[d - 1] == 0
        for k in range(4):
            if k == d - 1:
                continue
            expected = -1 if (mask >> k) & 1 else 1
            assert elem.translation[k] == expected
        assert (elem.flips >> (d - 1)) & 1 == 0
        assert elem.flips.bit_count() == 3


def test_generators_are_involutions(n3_classes):
    for word in n3_classes:
        path = validate(word)
        for amb, quo in zip(ambient_generators(path), reflection_generators(path)):
            assert compose_ambient(amb, amb) == ambient_identity(3)
            assert compose_quotient(quo, quo) == quotient_identity(3)


def test_closure_orders_reference_paths():
    assert reflection_closure(reflection_generators(validate(parse_word("123123", 3)))).order == 32
    assert reflection_closure(reflection_generators(validate(parse_word("12314234", 4)))).order == 64
    assert reflection_closure(reflection_generators(validate(parse_word("12341234", 4)))).order == 256


def test_closure_flip_classes_have_equal_size(n4_m8_classes):
    for word in n4_m8_classes:
        closure = reflection_closure(reflection_generators(validate(word)))
        by_flips: dict[int, int] = {}
        for elem in closure.elements:
            flips = parity_mask(elem)
            by_flips[flips] = by_flips.get(flips, 0) + 1
        counts = set(by_flips.values())
        assert len(counts) == 1
        assert len(by_flips) == flip_subgroup_order(4)
        assert closure.order == flip_subgroup_order(4) * counts.pop()


def test_closure_order_dichotomy(n3_classes, n4_classes):
    # the group order is a power of two, at least 2^(n+2), and it equals
    # 2^(n+2) exactly when the surface is embedded; nothing in between the
    # embedded order and its double ever occurs
    for word in (*n3_classes, *n4_classes):
        n = word.dim
        path = validate(word)
        order = reflection_closure(reflection_generators(path)).order
        assert order & (order - 1) == 0
        assert order >= 1 << (n + 2)
        embedded = decide_embedded(path).embedded
        assert embedded == (order == 1 << (n + 2))


def test_filled_cubes_hexagonal_loop():
    closure = reflection_closure(reflection_generators(validate(parse_word("123123", 3))))
    counts = filled_cubes(closure)
    assert len(counts) == 8
    assert set(counts.values()) == {4}
    anchors = [element.vector for element in closure.elements]
    assert len(anchors) == 32
    assert all(len(a) == 3 and all(0 <= x <= 3 for x in a) for a in anchors)
    assert len(set(anchors)) == len(anchors)


def test_filled_cube_counts_balanced(n4_m8_classes):
    for word in n4_m8_classes:
        closure = reflection_closure(reflection_generators(validate(word)))
        counts = filled_cubes(closure)
        assert sum(counts.values()) == closure.order
        assert len(set(counts.values())) == 1


def test_packed_filled_cubes_match_the_reference(n3_classes, n4_classes):
    # the count on packed lanes against the count keyed by each element's
    # vector: equal dicts in the same key order.  The subgroup of each
    # loop's first half of generators leaves some blocks empty, whose
    # zero counts must be kept.
    rng = random.Random(29)
    paths = [
        validate(word)
        for word in (
            *n3_classes,
            *n4_classes,
            *enumerate_paths(EnumerationQuery.create(5, max_length=12)),
        )
    ]
    paths += [random_valid_path(rng, dim) for dim in (5, 6) for _ in range(20)]
    assert any(not decide_embedded(path).embedded for path in paths[-40:])
    emptied = 0
    for path in paths:
        generators = reflection_generators(path)
        for closure in (
            reflection_closure(generators),
            reflection_closure(generators[: len(generators) // 2]),
        ):
            expected = filled_cubes_reference(closure)
            assert list(filled_cubes(closure).items()) == list(expected.items()), path.word
            emptied += 0 in expected.values()
    assert emptied


def test_filled_cubes_odd_dimension_checkerboard(n3_classes):
    # in odd dimension every reachable cube anchor has even coordinate sum
    for word in n3_classes:
        closure = reflection_closure(reflection_generators(validate(word)))
        for element in closure.elements:
            assert sum(element.vector) % 2 == 0


def _check_witness(path, beta):
    ambient = ambient_generators(path)
    quotient = reflection_generators(path)
    witness = four_translation_witness(path, beta)
    assert 1 <= len(witness) <= 4
    assert all(0 <= i < path.length for i in witness)
    amb = ambient_identity(path.dim)
    quo = quotient_identity(path.dim)
    for i in witness:
        amb = compose_ambient(amb, ambient[i])
        quo = compose_quotient(quo, quotient[i])
    assert amb.flips == 0
    step = tuple(4 if k == beta - 1 else 0 for k in range(path.dim))
    negated = tuple(-x for x in step)
    assert amb.translation in (step, negated)
    assert quo == quotient_identity(path.dim)


def test_axis_translation_witness_everywhere(n3_classes, n4_classes):
    # every direction of every class admits a short word of edge rotations
    # composing to a pure +-4 step along that axis
    for word in (*n3_classes, *n4_classes):
        path = validate(word)
        for beta in range(1, word.dim + 1):
            _check_witness(path, beta)


def test_witness_matches_exhaustive_search():
    # brute-force cross-check on one loop: no shorter word than the one
    # returned ever produces a pure axis translation
    path = validate(parse_word("121323", 3))
    gens = ambient_generators(path)
    for beta in (1, 2, 3):
        witness = four_translation_witness(path, beta)
        shortest = None
        for depth in range(1, 5):
            for cand in itertools.product(range(path.length), repeat=depth):
                amb = ambient_identity(3)
                for i in cand:
                    amb = compose_ambient(amb, gens[i])
                if amb.flips == 0 and all(
                    t == 0 for k, t in enumerate(amb.translation) if k != beta - 1
                ) and abs(amb.translation[beta - 1]) == 4:
                    shortest = depth
                    break
            if shortest is not None:
                break
        assert shortest is not None
        assert len(witness) == shortest
