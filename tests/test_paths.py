"""Word parsing, walk validation, canonical forms, symmetries."""

from __future__ import annotations

import copy
import itertools
import operator
import pickle
import random
import re

import pytest

from cubeloops import (
    BadLabelError,
    DirectionWord,
    FamilySpec,
    MissingDirectionError,
    NotClosedError,
    NotEmbeddedError,
    OddLengthError,
    SignSymmetry,
    canonicalize,
    decide_embedded,
    expand_patches,
    family_word,
    parse_word,
    validate,
)
from cubeloops import EnumerationQuery, enumerate_paths, paths
from cubeloops.groups import QuotientElement
from cubeloops.lattice import (
    TranslationLattice,
    direction_product_translation,
    pair_translation_lattice,
)
from cubeloops.oracles import (
    all_pairs_lattice,
    halve_even_vector,
    is_canonical,
    quotient_from_vector,
    row_reduce_reference,
)
from cubeloops.paths import _min_cyclic, gap_invariant, path_symmetries
from cubeloops.reflection import reflection_closure, reflection_generators
from cubeloops.verdict import _edge_counts
from conftest import REFERENCE_WORDS_N3, REFERENCE_WORDS_N4, random_valid_path


def test_parse_word_compact_and_separated():
    assert parse_word("12314234", 4).labels == (1, 2, 3, 1, 4, 2, 3, 4)
    assert parse_word("1 2 3 1 4 2 3 4", 4).labels == (1, 2, 3, 1, 4, 2, 3, 4)
    assert parse_word("12,31,4234", 4).labels == (1, 2, 3, 1, 4, 2, 3, 4)
    # above nine directions, separators are mandatory and digits don't split
    wide = parse_word("1 2 3 4 5 6 7 8 9 10 1 2 10 9 8 7 6 5 4 3", 10)
    assert wide.labels.count(10) == 2
    assert len(wide.labels) == 20


def test_parse_word_rejects_garbage():
    with pytest.raises(BadLabelError):
        parse_word("", 3)
    with pytest.raises(BadLabelError):
        parse_word("12x3", 3)
    with pytest.raises(BadLabelError):
        parse_word("140", 4)  # zero is not a direction
    with pytest.raises(BadLabelError):
        parse_word("125123", 4)  # 5 out of range for dim 4


@pytest.mark.parametrize("dim", [1, 0, -3])
def test_words_need_dimension_two(dim):
    # a one-dimensional "loop" runs along one edge and back, which is no
    # Jordan curve; the dimension is named before any label is checked
    message = f"dimension must be at least 2, not {dim}"
    with pytest.raises(ValueError, match=message):
        parse_word("11", dim)
    with pytest.raises(ValueError, match=message):
        validate(DirectionWord((1, 1), dim))


def test_words_are_checked_frozen_tuples():
    # the dimension is checked before the labels
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        DirectionWord((5,), 1)
    with pytest.raises(BadLabelError, match="label 5 out of range 1..4"):
        DirectionWord((1, 5), 4)
    word = canonicalize(parse_word("12314234", 4))
    assert type(word) is DirectionWord
    assert len(word) == 8 == len(word.labels)
    twins = pickle.loads(pickle.dumps(word)), copy.copy(word), copy.deepcopy(word)
    for twin in twins:
        assert type(twin) is DirectionWord and twin == word and str(twin) == str(word)
    # the census pickles its words between processes, and unpickling
    # checks again: a word that skipped the checks does not come back
    forged = tuple.__new__(DirectionWord, ((1, 5), 4))
    with pytest.raises(BadLabelError):
        pickle.loads(pickle.dumps(forged))
    # equality and order are those of the (labels, dim) tuple
    assert word == DirectionWord(word.labels, 4) == (word.labels, 4)
    assert DirectionWord((1, 2, 1, 2), 2) < DirectionWord((1, 2, 2, 1), 2)
    # _replace builds the word through the same checks
    assert word._replace(dim=5) == (word.labels, 5)
    assert type(word._replace(dim=5)) is DirectionWord
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        DirectionWord((1, 1), 2)._replace(dim=1)
    frozen = (word, "dim"), (validate(word), "word"), (SignSymmetry((1, 0), True), "flips")
    for value, field in frozen:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        word.extra = 0  # no instance dict


def test_value_types_keep_their_order_and_counts():
    # symmetries sort by flips, then the orientation flag; quotient
    # elements by dimension, then packed lanes
    symmetries = [
        SignSymmetry((1, 1), True),
        SignSymmetry((0, 1), False),
        SignSymmetry((0, 1), True),
    ]
    assert sorted(symmetries) == [symmetries[1], symmetries[2], symmetries[0]]
    elements = [QuotientElement(3, 5), QuotientElement(2, 9), QuotientElement(3, 1)]
    assert sorted(elements) == [elements[1], elements[2], elements[0]]
    # order and count are the element and patch counts, not the field counts
    for text, order in (("12321434", 64), ("12341234", 256)):
        path = validate(parse_word(text, 4))
        closure = reflection_closure(reflection_generators(path))
        patches = expand_patches(path, closure)
        assert closure.order == len(closure.elements) == order
        assert patches.count == len(patches.patches) == order
        assert patches.triangle_count == 8 * order


def test_validate_error_precedence():
    # non-closed figure-1 example: labels 1 and 2 occur three times each
    with pytest.raises(NotClosedError):
        validate(parse_word("3212 3121", 3))
    with pytest.raises(OddLengthError):
        validate(parse_word("12312", 3))
    with pytest.raises(MissingDirectionError):
        validate(parse_word("1212", 3))
    # closed, covering, but walks back over its start vertex
    with pytest.raises(NotEmbeddedError):
        validate(parse_word("112233", 3))
    # odd length wins over everything downstream of it
    with pytest.raises(OddLengthError):
        validate(parse_word("11122", 3))
    # two faults at once: not closed and missing direction 4, then missing
    # direction 3 and a revisit; each message names the first fault found
    for text, dim, error, message in (
        ("1213", 4, NotClosedError, "direction(s) [2, 3] used an odd number"),
        ("1122", 3, MissingDirectionError, "direction(s) [3] never used"),
        ("1122", 2, NotEmbeddedError, "revisits a vertex after 2 edges;"),
    ):
        with pytest.raises(error, match=re.escape(message)):
            validate(parse_word(text, dim))
    # a late first revisit: the sharp loop of dimension 8 with a
    # back-and-forth along axis 1 spliced in after 20 of its 28 edges,
    # closed and covering, revisits a vertex after 21 edges and again
    # after 22; run twice over, the loop is back at its start after 28
    sharp = family_word(FamilySpec("sharp", 8)).labels
    for labels, edges in ((sharp[:20] + (1, 1) + sharp[20:], 21), (sharp * 2, 28)):
        with pytest.raises(NotEmbeddedError, match=f"after {edges} edges;"):
            validate(DirectionWord(labels, 8))


def test_validate_accepts_references():
    for name, text in {**REFERENCE_WORDS_N3, **REFERENCE_WORDS_N4}.items():
        dim = 3 if name in REFERENCE_WORDS_N3 else 4
        path = validate(parse_word(text, dim))
        assert path.length == len(text)
        assert len(set(path.vertex_masks)) == path.length


def test_walk_vertices_shape_and_distinctness():
    path = validate(parse_word("123123", 3))
    masks = path.vertex_masks
    assert len(masks) == 6
    assert masks[0] == 0
    assert all(0 <= v < 8 for v in masks)
    assert len(set(masks)) == 6
    # consecutive vertices differ exactly in the edge's bit
    for i, lab in enumerate(path.word.labels):
        assert masks[i] ^ masks[(i + 1) % 6] == 1 << (lab - 1)


def test_validated_path_cannot_be_changed_in_place():
    # the pair rows and each gap vector are tuples: appending to them
    # turned the embedded verdict to False and the edge counts to
    # (3, 2, 2, 2); the gaps dict itself can still be assigned
    path = validate(parse_word("12314234", 4))
    with pytest.raises(AttributeError):
        path.rows.append(1)
    with pytest.raises(AttributeError):
        path.gaps[1].append(99)
    assert decide_embedded(path).embedded
    assert pair_translation_lattice(path).order == 4
    assert _edge_counts(4, path.gaps) == (2, 2, 2, 2)
    assert all(type(vector) is tuple for vector in path.gaps.values())


def test_walk_vertices_g5_eight_distinct():
    path = validate(parse_word("12341234", 4))
    assert len(set(path.vertex_masks)) == 8


def test_validate_high_dimension_sharp_loop():
    # the visited set holds m masks, not a 2^n-bit map of the cube
    path = validate(family_word(FamilySpec("sharp", 64)))
    assert path.length == 252
    assert len(set(path.vertex_masks)) == 252


def test_canonicalize_pinned_forms():
    # the two longer embedded classes are canonical fixed points
    assert str(canonicalize(parse_word("1231413214", 4))) == "1231413214"
    assert str(canonicalize(parse_word("123214123214", 4))) == "123214123214"
    assert str(canonicalize(parse_word("123123", 3))) == "123123"
    assert str(canonicalize(parse_word("12341234", 4))) == "12341234"
    # 121323 introduces its labels in order, yet its rotation 132312 has
    # a smaller repeat profile
    word = canonicalize(DirectionWord((1, 2, 1, 3, 2, 3), 3))
    assert word == DirectionWord((1, 2, 3, 2, 1, 3), 3)
    assert type(word) is DirectionWord
    # every label count of the empty word is even, so it is closed, and
    # its class holds only itself
    empty = DirectionWord((), 3)
    assert canonicalize(empty) == empty
    assert gap_invariant(empty) == ()


def test_canonicalize_identifies_sharp_path_with_longest_class():
    a = canonicalize(parse_word("134243134243", 4))
    b = canonicalize(parse_word("123214123214", 4))
    assert a == b


def test_canonicalize_reversal_and_relabel_invariance():
    g3 = parse_word("12314234", 4)
    assert canonicalize(DirectionWord(g3.labels[::-1], 4)) == canonicalize(g3)
    swapped = tuple({1: 4, 4: 1}.get(lab, lab) for lab in parse_word("12341234", 4).labels)
    assert canonicalize(DirectionWord(swapped, 4)) == canonicalize(parse_word("12341234", 4))


def _random_symmetry_image(rng: random.Random, labels: tuple[int, ...], dim: int):
    """Apply a random composition of rotation, reversal, relabeling."""
    out = list(labels)
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(3)
        if op == 0:
            r = rng.randrange(len(out))
            out = out[r:] + out[:r]
        elif op == 1:
            out = out[::-1]
        else:
            perm = list(range(1, dim + 1))
            rng.shuffle(perm)
            out = [perm[lab - 1] for lab in out]
    return tuple(out)


def test_canonicalize_idempotent_and_orbit_constant(n3_classes, n4_classes):
    # acceptance criterion: 50 random symmetry images per enumerated class
    rng = random.Random(314159)
    for word in (*n3_classes, *n4_classes):
        canon = canonicalize(word)
        assert canonicalize(canon) == canon
        assert canon.labels[0] == 1
        for _ in range(50):
            image = _random_symmetry_image(rng, word.labels, word.dim)
            assert canonicalize(DirectionWord(image, word.dim)) == canon


def _first_occurrence_form(labels) -> tuple[int, ...]:
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(lab, len(mapping) + 1) for lab in labels)


def _closed_walks(dim: int, max_len: int) -> list[tuple[int, ...]]:
    """Direction words of every closed walk from vertex 0 with no repeated
    vertex and at most max_len edges, in first-occurrence form (a superset
    of the closed walks the census tests)."""
    out: list[tuple[int, ...]] = []
    word = [1]

    def walk(vertex: int, visited: frozenset[int]) -> None:
        for d in range(1, min(max(word) + 1, dim) + 1):
            target = vertex ^ (1 << (d - 1))
            if target == 0 and len(word) > 1:
                out.append((*word, d))
            elif target not in visited and target.bit_count() < max_len - len(word):
                word.append(d)
                walk(target, visited | {target})
                word.pop()

    walk(1, frozenset({0, 1}))
    return out


def _closed_first_occurrence_words(length: int):
    """Every word of the given length in first-occurrence form whose labels
    all occur an even number of times."""
    for tail in itertools.product(range(1, length // 2 + 1), repeat=length - 1):
        word = (1, *tail)
        if word == _first_occurrence_form(word) and all(
            word.count(lab) % 2 == 0 for lab in set(word)
        ):
            yield word


def _profile(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Cyclic distance from each position back to the previous edge in the
    same direction, read off the word written twice."""
    m = len(labels)
    last: dict[int, int] = {}
    out = []
    for i, lab in enumerate(labels * 2):
        if i >= m:
            out.append(i - last[lab])
        last[lab] = i
    return tuple(out)


def _rotations(labels: tuple[int, ...]):
    """The 2m rotations of the word and of its reversal."""
    for seq in (labels, labels[::-1]):
        for r in range(len(seq)):
            yield seq[r:] + seq[:r]


def _reference_canonical_form(labels: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical form by definition: the least (profile, relabelled
    word) pair over all 2m rotations, labels breaking profile ties."""
    return min((_profile(w), _first_occurrence_form(w)) for w in _rotations(labels))[1]


def _canonicity_oracle(labels: tuple[int, ...]) -> bool:
    return _reference_canonical_form(labels) == labels


def test_is_canonical_matches_canonicalize():
    # the documented domain: closed words in first-occurrence form.  Every
    # such word up to length 8, every closed walk for n=3 (up to 8 edges),
    # n=4 (16) and n=5 (12), and seeded symmetry images of their classes,
    # which are mostly not canonical.  Both the production form and the
    # whole-word test agree with the definition, which breaks profile ties
    # by labels; neither compares labels
    words = {w for m in (2, 4, 6, 8) for w in _closed_first_occurrence_words(m)}
    rng = random.Random(161803)
    for dim, max_len in ((3, 8), (4, 16), (5, 12)):
        walks = _closed_walks(dim, max_len)
        words.update(walks)
        for word in filter(_canonicity_oracle, walks):
            for _ in range(10):
                image = _random_symmetry_image(rng, word, dim)
                words.add(_first_occurrence_form(image))
    forms = {word: _reference_canonical_form(word) for word in words}
    assert {
        word: canonicalize(DirectionWord(word, max(2, *word))).labels for word in words
    } == forms
    verdicts = {word: is_canonical(word) for word in words}
    assert verdicts == {word: forms[word] == word for word in words}
    # both answers occur often, and rejections outnumber acceptances
    accepted = sum(verdicts.values())
    assert 0 < accepted < len(words) - accepted


def test_repeat_profile_fixes_the_relabelled_word():
    # the lemma behind canonicity without labels: position i's previous
    # same-direction edge is i - p[i], so the profile fixes the direction
    # classes and with them the first-occurrence relabelling.  Over every
    # rotation and reversal of random closed words, and of periodic ones
    # (a short word repeated an even number of times) for their many
    # profile ties, equal profiles give equal relabelled words, the word
    # and the reversed profile are read off the profile, and canonicalize
    # picks the definition's form, also on every family word up to
    # dimension 30, long and with many ties at the smallest gap
    rng = random.Random(57721)
    ties = 0
    for _ in range(400):
        dim = rng.randint(2, 7)
        closed = [rng.randint(1, dim) for _ in range(rng.randint(1, 8))] * 2
        rng.shuffle(closed)
        period = tuple(rng.randint(1, dim) for _ in range(rng.randint(1, 4)))
        periodic = period * (2 * rng.randint(1, 16 // (2 * len(period))))
        for labels in (tuple(closed), periodic):
            word_of: dict[tuple[int, ...], tuple[int, ...]] = {}
            for w in _rotations(labels):
                relabelled = _first_occurrence_form(w)
                assert word_of.setdefault(_profile(w), relabelled) == relabelled, w
                assert paths._word_from_profile(_profile(w)) == relabelled, w
                assert paths._reversed_profile(_profile(w)) == _profile(w[::-1]), w
            ties += 2 * len(labels) - len(word_of)
            form = canonicalize(DirectionWord(labels, dim)).labels
            assert form == _reference_canonical_form(labels), labels
    assert ties > 1000
    for dim in range(3, 31):
        for spec in _family_specs(dim):
            labels = family_word(spec).labels
            form = canonicalize(DirectionWord(labels, dim)).labels
            assert form == _reference_canonical_form(labels), spec


def _family_specs(dim: int) -> list[FamilySpec]:
    """One member of each named family that has one in this dimension."""
    specs = [
        FamilySpec("gamma-a", dim, beta=dim // 2),
        FamilySpec("gamma-b", dim, alpha=1, beta=dim - 1),
        FamilySpec("gamma-c", dim, alpha=dim // 3 or 1, beta=dim - 1),
        FamilySpec("d-series", dim),
    ]
    if dim >= 4:
        specs.append(FamilySpec("sharp", dim))
    return specs


def test_gap_invariant_reference_values():
    assert gap_invariant(parse_word("123123", 3)) == ((3, 3), (3, 3), (3, 3))
    assert gap_invariant(parse_word("121323", 3)) == ((2, 4), (2, 4), (3, 3))


def test_min_cyclic_is_the_least_rotation_or_reversal():
    # two-gap vectors take a shortcut; longer ones compare the rotations
    # of the vector and of its reversal that start with its smallest gap
    for k in range(1, 7):
        for vec in itertools.product(range(1, 5), repeat=k):
            candidates = [vec[r:] + vec[:r] for r in range(k)]
            candidates += [c[::-1] for c in candidates]
            assert _min_cyclic(vec) == min(candidates), vec


def test_gap_invariant_is_symmetry_invariant(n4_m8_classes):
    rng = random.Random(2718)
    for word in n4_m8_classes:
        expected = gap_invariant(word)
        for _ in range(20):
            image = _random_symmetry_image(rng, word.labels, word.dim)
            assert gap_invariant(DirectionWord(image, word.dim)) == expected


def _reference_gap_invariant(word: DirectionWord) -> tuple[tuple[int, ...], ...]:
    """Reference: each direction's gaps between its listed positions, mod m."""
    m = len(word.labels)
    positions: dict[int, list[int]] = {}
    for i, lab in enumerate(word.labels):
        positions.setdefault(lab, []).append(i)
    vectors = []
    for pos in positions.values():
        gaps = tuple(
            (pos[(k + 1) % len(pos)] - pos[k]) % m for k in range(len(pos))
        )
        vectors.append(_min_cyclic(gaps))
    return tuple(sorted(vectors))


def _detoured(rng: random.Random, word: DirectionWord, tries: int) -> DirectionWord:
    """The loop with random detours: an edge u-v in direction d becomes
    u, u^e, v^e, v when both new vertices are off the loop, so direction e
    gains two edges and the loop stays simple."""
    labels = list(word.labels)
    for _ in range(tries):
        masks = validate(DirectionWord(tuple(labels), word.dim)).vertex_masks
        i = rng.randrange(len(labels))
        e = rng.randrange(1, word.dim + 1)
        flip = 1 << (e - 1)
        u, v = masks[i], masks[(i + 1) % len(labels)]
        if e != labels[i] and not {u ^ flip, v ^ flip} & {*masks}:
            labels[i : i + 1] = [e, labels[i], e]
    return validate(DirectionWord(tuple(labels), word.dim)).word


def test_gap_invariant_matches_the_modular_reference():
    # labels above 9, directions with three or more edges, and every
    # rotation of each word and of its reversal
    rng = random.Random(1729)
    checked = 0
    for dim in range(2, 13):
        cap = min(3 * dim, 1 << dim)
        for _ in range(40):
            while True:
                word = _detoured(rng, _random_short_loop(rng, dim, cap), 6)
                labels = word.labels
                # the square is the only loop in dimension 2
                if dim == 2 or max(map(labels.count, labels)) >= 4:
                    break
            expected = _reference_gap_invariant(word)
            for seq in (labels, labels[::-1]):
                for r in range(len(seq)):
                    image = DirectionWord(seq[r:] + seq[:r], dim)
                    assert gap_invariant(image) == expected, image
                    assert _reference_gap_invariant(image) == expected, image
            checked += 1
    assert checked >= 400


def _reference_walks(n3_classes, n4_classes):
    """The n=3 and n=4 censuses, n=5 up to 12 edges and random loops up to
    n=8, whose trails ``random_valid_path`` walks on its own."""
    rng = random.Random(8128)
    census = enumerate_paths(EnumerationQuery.create(5, max_length=12))
    return [
        *map(validate, (*n3_classes, *n4_classes, *census)),
        *(random_valid_path(rng, dim) for dim in range(3, 9) for _ in range(25)),
    ]


def test_walk_reading_matches_the_references(n3_classes, n4_classes):
    # the one pass that validate, build_report and the census listings
    # read each walk with, field by field against forms computed another
    # way: the trail against the XOR of each prefix's edge bits, the pair
    # rows against the arc walk over every parallel pair, the
    # odd-dimension product row against the composed edge rotations, the
    # gap vectors and the profile against the word's listed positions, the
    # edge counts against the label counts
    for path in _reference_walks(n3_classes, n4_classes):
        labels, masks, dim = path.word.labels, path.vertex_masks, path.dim
        reading = paths._read_walk(path.word)
        bits = (1 << d - 1 for d in labels[:-1])
        assert reading.vertex_masks == masks, labels
        assert masks == (*itertools.accumulate(bits, operator.xor, initial=0),)
        pair = TranslationLattice(dim, row_reduce_reference(reading.rows))
        assert pair == all_pairs_lattice(path), labels
        if dim % 2:
            composed = direction_product_translation(path)
            assert reading.product == halve_even_vector(composed), labels
        m = len(labels)
        positions: dict[int, list[int]] = {}
        for i, d in enumerate(labels):
            positions.setdefault(d, []).append(i)
        assert reading.gaps == {
            d: tuple((pos[k] - pos[k - 1]) % m for k in range(len(pos)))
            for d, pos in positions.items()
        }, labels
        assert paths._gap_invariant(reading.gaps, {}) == _reference_gap_invariant(
            path.word
        )
        assert reading.profile == _profile(labels)
        counts = tuple(labels.count(d) for d in range(1, dim + 1))
        assert _edge_counts(dim, reading.gaps) == counts


def test_reflection_generators_are_admissible(n3_classes, n4_classes):
    # generators are packed without the flip-subgroup check; an edge
    # rotation flips n - 1 axes, admissible in either parity of n
    for path in _reference_walks(n3_classes, n4_classes):
        for element in reflection_generators(path):
            assert quotient_from_vector(element.vector) == element


def test_gap_invariant_separates_small_censuses(n3_classes, n4_m8_classes):
    for classes in (n3_classes, n4_m8_classes):
        invariants = [gap_invariant(word) for word in classes]
        assert len(set(invariants)) == len(classes)


def test_path_symmetries_reference_sets():
    def sym_set(text, dim):
        path = validate(parse_word(text, dim))
        return {s.flips for s in path_symmetries(path)}

    assert sym_set("123214123214", 4) == {(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)}
    assert sym_set("12321434", 4) == {(0, 0, 1, 0)}
    assert sym_set("12314234", 4) == set()
    assert sym_set("12314324", 4) == set()
    assert sym_set("1231413214", 4) == {(0, 0, 0, 1)}


def test_path_symmetry_orientation_parity():
    path = validate(parse_word("123214123214", 4))
    for sym in path_symmetries(path):
        weight = sum(sym.flips)
        assert sym.orientation_preserving == (weight % 2 == 0)
    odd_path = validate(parse_word("123123", 3))
    for sym in path_symmetries(odd_path):
        assert sym.orientation_preserving is None


def test_path_symmetries_base_independent():
    # moving the base vertex conjugates the edge set by a translation the
    # symmetry commutes with, so the symmetry set cannot change
    word = parse_word("12321434", 4)
    based = validate(word)
    reference = {s.flips for s in path_symmetries(based)}
    for base in range(1, 16):
        path = based._replace(vertex_masks=tuple(v ^ base for v in based.vertex_masks))
        assert {s.flips for s in path_symmetries(path)} == reference


def _brute_force_symmetries(path):
    """Reference: every nonzero sign mask that maps the edge set onto itself."""
    masks = path.vertex_masks
    edges = {frozenset(pair) for pair in zip(masks, masks[1:] + masks[:1])}
    return {
        tuple((mask >> i) & 1 for i in range(path.dim))
        for mask in range(1, 1 << path.dim)
        if {frozenset((a ^ mask, b ^ mask)) for a, b in edges} == edges
    }


def _random_short_loop(rng: random.Random, dim: int, cap: int) -> DirectionWord:
    """A random valid word of even length between 2*dim and cap, by restarts."""
    while True:
        length = rng.randrange(2 * dim, cap + 1, 2)
        vertex, seen, labels = 0, {0}, []
        while len(labels) < length:
            left = length - len(labels) - 1  # edges still to walk after this one
            options = []
            for d in range(1, dim + 1):
                target = vertex ^ (1 << (d - 1))
                if target == 0 and left == 0:
                    options.append(d)
                elif target not in seen and target.bit_count() <= left:
                    options.append(d)
            if not options:
                break
            d = rng.choice(options)
            labels.append(d)
            vertex ^= 1 << (d - 1)
            seen.add(vertex)
        else:
            if len(set(labels)) == dim:
                return DirectionWord(tuple(labels), dim)


def _random_doubled_loop(rng: random.Random, dim: int, cap: int) -> DirectionWord:
    """A random valid word h + h: the sign change XOR(h) maps it onto itself."""
    while True:
        size = rng.randrange(dim, cap // 2 + 1)
        half = [rng.randrange(1, dim + 1) for _ in range(size)]
        if len(set(half)) < dim:
            continue
        try:
            return validate(DirectionWord(tuple(half * 2), dim)).word
        except NotEmbeddedError:
            continue


def test_path_symmetries_match_brute_force_on_random_loops():
    rng = random.Random(20171)
    for dim in range(3, 9):
        cap = min(4 * dim, 1 << dim)
        for _ in range(25):
            for word in (
                _random_short_loop(rng, dim, cap),
                _random_doubled_loop(rng, dim, cap),
            ):
                based = validate(word)
                for base in (0, rng.randrange(1, 1 << dim)):
                    masks = tuple(v ^ base for v in based.vertex_masks)
                    path = based._replace(vertex_masks=masks)
                    found = {s.flips for s in path_symmetries(path)}
                    assert found == _brute_force_symmetries(path), (word, base)


def test_path_symmetries_match_brute_force_on_families():
    specs = []
    for dim in range(3, 11):
        specs.append(FamilySpec("d-series", dim))
        if dim >= 4:
            specs.append(FamilySpec("sharp", dim))
        for beta in range(1, dim):
            specs.append(FamilySpec("gamma-a", dim, beta=beta))
            for alpha in range(1, beta):
                specs.append(FamilySpec("gamma-b", dim, alpha=alpha, beta=beta))
                specs.append(FamilySpec("gamma-c", dim, alpha=alpha, beta=beta))
    for spec in specs:
        path = validate(family_word(spec))
        found = {s.flips for s in path_symmetries(path)}
        assert found == _brute_force_symmetries(path), spec
