"""Word parsing, walk validation, canonical forms, symmetries."""

from __future__ import annotations

import random

import pytest

from cubeloops import (
    BadLabelError,
    DirectionWord,
    FamilySpec,
    MissingDirectionError,
    NotClosedError,
    NotEmbeddedError,
    OddLengthError,
    canonicalize,
    family_word,
    gap_invariant,
    parse_word,
    path_symmetries,
    validate,
)
from conftest import REFERENCE_WORDS_N3, REFERENCE_WORDS_N4


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
    assert masks[0] == path.base_mask == 0
    assert all(0 <= v < 8 for v in masks)
    assert len(set(masks)) == 6
    # consecutive vertices differ exactly in the edge's bit
    for i, lab in enumerate(path.word.labels):
        assert masks[i] ^ masks[(i + 1) % 6] == 1 << (lab - 1)


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
    assert canonicalize(parse_word("1231413214", 4)).compact() == "1231413214"
    assert canonicalize(parse_word("123214123214", 4)).compact() == "123214123214"
    assert canonicalize(parse_word("123123", 3)).compact() == "123123"
    assert canonicalize(parse_word("12341234", 4)).compact() == "12341234"


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


def test_gap_invariant_reference_values():
    assert gap_invariant(parse_word("123123", 3)) == ((3, 3), (3, 3), (3, 3))
    assert gap_invariant(parse_word("121323", 3)) == ((2, 4), (2, 4), (3, 3))


def test_gap_invariant_is_symmetry_invariant(n4_m8_classes):
    rng = random.Random(2718)
    for word in n4_m8_classes:
        expected = gap_invariant(word)
        for _ in range(20):
            image = _random_symmetry_image(rng, word.labels, word.dim)
            assert gap_invariant(DirectionWord(image, word.dim)) == expected


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
    reference = {s.flips for s in path_symmetries(validate(word))}
    for base in range(1, 16):
        path = validate(word, base_mask=base)
        assert {s.flips for s in path_symmetries(path)} == reference
