"""Exact arithmetic in the ambient isometry group and its finite quotient."""

from __future__ import annotations

import random

import pytest

import cubeloops.groups as groups
from conftest import parity_mask, random_valid_path
from cubeloops import FamilySpec, family_word, validate
from cubeloops.groups import (
    QuotientElement,
    close_under_composition,
    flip_subgroup_order,
)
from cubeloops.oracles import (
    AmbientElement,
    ambient_identity,
    apply_doubled,
    compose_ambient,
    compose_quotient,
    cube_edge_generators,
    edge_rotation_flips,
    in_flip_subgroup,
    inverse_ambient,
    project_to_quotient,
    quotient_from_vector,
    quotient_identity,
)
from cubeloops.reflection import reflection_generators


def _mask(bits):
    return sum(1 << i for i, b in enumerate(bits) if b)


def test_compose_ambient_reference_pair():
    a = AmbientElement((1, 0, 1, 1), _mask((1, 0, 1, 1)))
    b = AmbientElement((-1, 1, 0, 1), _mask((1, 1, 0, 1)))
    ab = compose_ambient(a, b)
    assert ab.translation == (2, 1, 1, 0)
    assert ab.flips == _mask((0, 1, 1, 0))
    ba = compose_ambient(b, a)
    assert ba.translation == (-2, 1, 1, 0)
    assert ba.flips == _mask((0, 1, 1, 0))


def test_compose_ambient_identity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice((3, 4, 5))
        g = AmbientElement(
            tuple(rng.randrange(-5, 6) for _ in range(n)), rng.randrange(1 << n)
        )
        e = ambient_identity(n)
        assert compose_ambient(e, g) == g
        assert compose_ambient(g, e) == g
        assert compose_ambient(g, inverse_ambient(g)) == e
        assert compose_ambient(inverse_ambient(g), g) == e


def test_compose_ambient_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions differ: 3 vs 4"):
        compose_ambient(ambient_identity(3), ambient_identity(4))


def test_ambient_apply_matches_composition():
    # composing elements is composing the affine maps they denote
    rng = random.Random(21)
    for _ in range(200):
        n = rng.choice((3, 4, 5))
        g = AmbientElement(
            tuple(rng.randrange(-4, 5) for _ in range(n)), rng.randrange(1 << n)
        )
        h = AmbientElement(
            tuple(rng.randrange(-4, 5) for _ in range(n)), rng.randrange(1 << n)
        )
        x = tuple(rng.randrange(-9, 10) for _ in range(n))
        assert compose_ambient(g, h).apply(x) == g.apply(h.apply(x))


def test_flip_subgroup_order_values():
    assert flip_subgroup_order(4) == 16
    assert flip_subgroup_order(3) == 4
    assert flip_subgroup_order(2) == 4
    assert flip_subgroup_order(5) == 16


def test_flip_subgroup_membership_exhaustive():
    # even dimension: every pattern; odd dimension: even-weight patterns only
    for n in range(2, 7):
        members = [m for m in range(1 << n) if in_flip_subgroup(n, m)]
        if n % 2 == 0:
            assert len(members) == 1 << n
        else:
            assert all(m.bit_count() % 2 == 0 for m in members)
            assert len(members) == 1 << (n - 1)
        assert len(members) == flip_subgroup_order(n)


def test_project_reference_examples():
    kernel = project_to_quotient(AmbientElement((4, 0, 0), 0))
    assert kernel == quotient_identity(3)

    already = AmbientElement((1, 0, 1, 1), _mask((1, 0, 1, 1)))
    q = project_to_quotient(already)
    assert q.vector == (1, 0, 1, 1)
    assert parity_mask(q) == _mask((1, 0, 1, 1))

    mixed = project_to_quotient(
        AmbientElement((-1, 2, 0, 3), _mask((1, 0, 0, 1)))
    )
    assert mixed.vector == (3, 2, 0, 3)
    assert parity_mask(mixed) == _mask((1, 0, 0, 1))


def test_project_rejects_elements_outside_domain():
    # translation parity must match the flip pattern
    with pytest.raises(ValueError, match="outside the subgroup"):
        project_to_quotient(AmbientElement((1, 0, 0), 0))
    # flips must lie in the flip subgroup (odd dimension: even weight)
    with pytest.raises(ValueError, match="outside the subgroup"):
        project_to_quotient(AmbientElement((1, 0, 0), _mask((1, 0, 0))))


def test_project_is_homomorphism():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.choice((3, 4, 5))
        g = _random_domain_element(rng, n, spread=True)
        h = _random_domain_element(rng, n, spread=True)
        lhs = project_to_quotient(compose_ambient(g, h))
        rhs = compose_quotient(project_to_quotient(g), project_to_quotient(h))
        assert lhs == rhs


def _random_domain_element(rng, n, spread=False):
    """Random ambient element with translation parity matching its flips."""
    while True:
        flips = rng.randrange(1 << n)
        if in_flip_subgroup(n, flips):
            break
    translation = []
    for k in range(n):
        parity = (flips >> k) & 1
        base = rng.randrange(-2, 3) * 2 if spread else rng.randrange(0, 4) & ~1
        translation.append(base + parity)
    return AmbientElement(tuple(translation), flips)


def _random_quotient_element(rng, n):
    while True:
        flips = rng.randrange(1 << n)
        if in_flip_subgroup(n, flips):
            break
    vector = tuple(
        rng.choice((0, 2)) + ((flips >> k) & 1) for k in range(n)
    )
    return quotient_from_vector(vector)


def test_quotient_compose_reference_example():
    # two edge rotations about parallel direction-1 edges; the functional
    # oracle (map evaluation on points) gives translation (0,2,0,0)
    rho1 = edge_rotation_flips(4, 1)
    a = quotient_from_vector((0, 1, 1, 1))
    b = quotient_from_vector((0, 3, 1, 1))
    assert parity_mask(a) == rho1 and parity_mask(b) == rho1
    ab = compose_quotient(a, b)
    assert ab.vector == (0, 2, 0, 0)
    assert parity_mask(ab) == 0
    # oracle: evaluate both sign-change-plus-translate maps on sample points
    rng = random.Random(5)
    for _ in range(20):
        x = tuple(rng.randrange(0, 8) for _ in range(4))
        direct = apply_doubled(a, apply_doubled(b, tuple(2 * c for c in x)))
        composed = apply_doubled(ab, tuple(2 * c for c in x))
        assert direct == composed


def test_quotient_commutative_and_self_inverse_bulk():
    # acceptance criterion: 10^4 random pairs per dimension 3, 4, 5
    for n in (3, 4, 5):
        rng = random.Random(1000 + n)
        identity = quotient_identity(n)
        for _ in range(10_000):
            a = _random_quotient_element(rng, n)
            b = _random_quotient_element(rng, n)
            assert compose_quotient(a, b) == compose_quotient(b, a)
            assert compose_quotient(a, a) == identity


def test_quotient_vector_flip_roundtrip():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.choice((3, 4, 5))
        q = _random_quotient_element(rng, n)
        assert quotient_from_vector(q.vector) == q
        assert in_flip_subgroup(n, parity_mask(q))


def test_quotient_rejects_bad_vectors():
    # parity of entries must be a legal flip pattern: (1,0,0) has odd weight
    with pytest.raises(ValueError, match="pattern 0x1 is not admissible in dimension 3"):
        quotient_from_vector((1, 0, 0))


def test_full_edge_generator_closure_orders():
    # group order law: 2^(2n) for even n, 2^(2n-1) for odd n
    for n, expected in ((3, 32), (4, 256), (5, 512)):
        gens = cube_edge_generators(n)
        assert len(gens) == n * (1 << (n - 1))
        closure = close_under_composition(gens)
        assert len(closure) == expected


def test_closure_is_deterministic_and_closed():
    gens = cube_edge_generators(3)
    first = close_under_composition(gens)
    second = close_under_composition(tuple(reversed(gens)))
    assert first == second
    members = set(first)
    for a in first[:8]:
        for b in first[:8]:
            assert compose_quotient(a, b) in members


def _breadth_first_closure(generators):
    """Reference: compose every element with every generator until no new
    element appears."""
    gens = sorted(set(generators))
    dim = gens[0].dim
    lo = groups._lane_masks(dim)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = groups._compose_packed(x, g.packed, lo)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(QuotientElement(dim, p) for p in sorted(seen))


def test_closure_matches_breadth_first_reference(n4_classes, random_n5_paths):
    rng = random.Random(20240607)
    paths = [validate(word) for word in n4_classes] + list(random_n5_paths)
    # random loops at n=8 have order 65,536, seconds for the reference
    paths += [random_valid_path(rng, 7) for _ in range(3)]
    for name in ("sharp", "d-series"):
        paths.append(validate(family_word(FamilySpec(name, 8))))
    for path in paths:
        gens = reflection_generators(path)
        assert close_under_composition(gens) == _breadth_first_closure(gens), path.word
    # generator sets that are not a loop's: all edges of the cube, and
    # random admissible elements with repeats and the identity
    for n in (3, 4, 5):
        gens = cube_edge_generators(n)
        assert close_under_composition(gens) == _breadth_first_closure(gens)
        for _ in range(20):
            picks = [quotient_identity(n)]
            while len(picks) < 6:
                vector = [rng.randrange(4) for _ in range(n)]
                if in_flip_subgroup(n, _mask(v % 2 for v in vector)):
                    picks += [quotient_from_vector(vector)] * rng.randint(1, 2)
            assert close_under_composition(picks) == _breadth_first_closure(picks)


def test_closure_matches_breadth_first_on_arbitrary_lanes():
    # the coset doubling is exact for every packed value, admissible flip
    # pattern or not: every element is an involution, so the group is abelian
    rng = random.Random(20261018)
    for n in range(2, 8):
        for _ in range(40):
            picks = [quotient_identity(n)]
            for _ in range(rng.randint(1, n + 2)):
                element = QuotientElement(n, rng.getrandbits(2 * n))
                picks += [element] * rng.randint(1, 2)
            rng.shuffle(picks)
            assert close_under_composition(picks) == _breadth_first_closure(picks)


def test_edge_rotation_flips_fixes_only_its_axis():
    for n in (3, 4, 5):
        for d in range(1, n + 1):
            flips = edge_rotation_flips(n, d)
            assert not (flips >> (d - 1)) & 1
            assert flips.bit_count() == n - 1
