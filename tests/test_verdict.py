"""Embeddedness, orientability, Euler data, bounds, full reports."""

from __future__ import annotations

import json

import pytest

from cubeloops import (
    DirectionWord,
    EnumerationQuery,
    FamilySpec,
    NotClosedError,
    NotEmbeddedError,
    build_report,
    canonicalize,
    decide_embedded,
    enumerate_paths,
    family_word,
    parse_word,
    validate,
)
from cubeloops.groups import QuotientElement
from cubeloops.lattice import even_translation_lattice
from cubeloops.reflection import reflection_closure, reflection_generators
from cubeloops import lattice, paths, verdict
from cubeloops.paths import _census_path
from cubeloops.verdict import _report_shape, edge_bound
from conftest import REFERENCE_WORDS_N3, REFERENCE_WORDS_N4

EMBEDDED_N4 = {"12314234", "12314324", "12321434", "1231413214", "123214123214"}


def test_decide_embedded_eight_edge_census():
    for text in ("12314234", "12314324", "12321434"):
        path = validate(parse_word(text, 4))
        decision = decide_embedded(path)
        assert decision.embedded
        assert even_translation_lattice(path).order == 4
        assert decision.reflection_group_order == 64
    for text in ("12314243", "12314342", "12341234"):
        path = validate(parse_word(text, 4))
        decision = decide_embedded(path)
        assert not decision.embedded
        assert even_translation_lattice(path).order >= 8
        assert decision.reflection_group_order >= 128


def test_decide_embedded_every_small_odd_class(n3_classes):
    # dimension three admits no self-intersections at all
    for word in n3_classes:
        path = validate(word)
        decision = decide_embedded(path)
        assert decision.embedded
        assert even_translation_lattice(path).order == 8
        assert decision.reflection_group_order == 32


def test_decide_embedded_matches_closure_order(n4_classes):
    for word in n4_classes:
        path = validate(word)
        decision = decide_embedded(path)
        closure = reflection_closure(reflection_generators(path))
        assert decision.reflection_group_order == closure.order
        assert decision.embedded == (closure.order == 64)


def test_decide_orientable_even_dimension(n4_m8_classes):
    for word in n4_m8_classes:
        flags = build_report(word).orientable
        assert flags.surface and flags.quotient_by_pair_lattice
        assert flags.quotient_by_even_translations


def test_decide_orientable_odd_dimension_pins():
    flags = build_report(parse_word("123123", 3)).orientable
    assert flags.surface is True
    assert flags.quotient_by_pair_lattice is True
    assert flags.quotient_by_even_translations is False

    flags = build_report(parse_word("145231425232", 5)).orientable
    assert flags.surface is False
    assert flags.quotient_by_pair_lattice is False
    assert flags.quotient_by_even_translations is False


def test_euler_genus_reference_values():
    for text, dim, expected in (
        ("12314234", 4, (-16, 9)),
        ("1231413214", 4, (-24, 13)),
        ("123214123214", 4, (-32, 17)),
        ("123123", 3, (-2, None)),
        ("121323", 3, (-2, None)),
        ("12321232", 3, (-4, None)),
    ):
        report = build_report(parse_word(text, dim))
        assert (report.euler_char, report.genus) == expected


def test_euler_genus_consistency(n4_embedded_classes):
    for word in n4_embedded_classes:
        report = build_report(word)
        chi, genus = report.euler_char, report.genus
        assert chi % 2 == 0
        assert genus is not None
        assert chi == 2 - 2 * genus


def _summary_members():
    for dim in range(3, 10):
        yield FamilySpec("gamma-a", dim, beta=1)
        yield FamilySpec("gamma-b", dim, alpha=1, beta=2)
        yield FamilySpec("gamma-c", dim, alpha=1, beta=2)
        yield FamilySpec("d-series", dim)
        if dim >= 4:
            yield FamilySpec("sharp", dim)


def test_embedded_decision_matches_the_full_report(n3_classes, n4_classes):
    # the summary the text listing prints from must read as the report does
    words = [
        *n3_classes,
        *n4_classes,
        *enumerate_paths(EnumerationQuery.create(5, max_length=12)),
        *map(family_word, _summary_members()),
    ]
    seen = set()
    for word in words:
        decision = decide_embedded(validate(word))
        report = build_report(word)
        for field in ("embedded", "reflection_group_order", "euler_char", "genus"):
            assert getattr(decision, field) == getattr(report, field), (word, field)
        seen.add((decision.embedded, word.dim % 2, decision.genus is None))
    # a non-embedded loop, an odd embedded one and an even embedded one
    assert {(False, 0, True), (True, 1, True), (True, 0, False)} <= seen


def test_edge_bound_reference_values():
    ruled = edge_bound(4, 14)
    assert ruled.verdict == "ruled-out"
    assert ruled.limit == 12
    assert not ruled.heuristic

    sharp = edge_bound(4, 12)
    assert sharp.verdict == "maybe-embedded"
    assert sharp.limit == 12

    capacity = edge_bound(3, 10)
    assert capacity.verdict == "ruled-out"
    assert capacity.limit == 8
    assert not capacity.heuristic


def test_edge_bound_odd_dimension_heuristic_flag():
    within = edge_bound(5, 30)
    assert within.verdict == "maybe-embedded"
    assert within.limit == 34
    assert within.heuristic

    beyond = edge_bound(7, 52)
    assert beyond.verdict == "ruled-out"
    assert beyond.limit == 50
    assert beyond.heuristic


def test_per_direction_bound_pins():
    g8 = validate(parse_word("123214123214", 4))
    load = build_report(g8.word).direction_load
    assert load.verdict == "maybe-embedded"
    assert load.counts == (4, 4, 2, 2)
    assert load.constrained_axes == (1, 2)
    # the four-edge directions force zero entries across the whole lattice
    for row in even_translation_lattice(g8).basis_vectors():
        assert row[0] == 0 and row[1] == 0

    overloaded = validate(parse_word("12131214121324", 4))
    load = build_report(overloaded.word).direction_load
    assert load.verdict == "ruled-out"
    assert load.overloaded_axes == (1,)
    assert load.counts[0] == 6
    assert not decide_embedded(overloaded).embedded

    g3 = validate(parse_word("12314234", 4))
    assert build_report(g3.word).direction_load.verdict == "maybe-embedded"
    assert build_report(g3.word).direction_load.constrained_axes == ()

    odd = build_report(parse_word("123123", 3)).direction_load
    assert odd.verdict == "not-applicable"
    assert odd.counts == (2, 2, 2)


def test_four_edge_direction_constraint_on_embedded(n4_classes):
    for word in n4_classes:
        path = validate(word)
        if not decide_embedded(path).embedded:
            continue
        load = build_report(word).direction_load
        assert load.verdict == "maybe-embedded"
        for axis in load.constrained_axes:
            for row in even_translation_lattice(path).basis_vectors():
                assert row[axis - 1] == 0


def test_build_report_reference_g6():
    report = build_report(parse_word("12321434", 4))
    assert report.embedded
    assert report.genus == 9
    assert report.euler_char == -16
    assert {s.flips for s in report.symmetries} == {(0, 0, 1, 0)}
    assert report.length == 8
    assert report.reflection_group_order == 64


def test_build_report_reference_hexagon():
    report = build_report(parse_word("123123", 3))
    assert report.embedded
    assert report.reflection_group_order == 32
    assert report.lattice.order == 8
    assert report.euler_char == -2
    assert report.genus is None


def test_build_report_propagates_validation_errors():
    with pytest.raises(NotClosedError):
        build_report(parse_word("32123121", 3))
    with pytest.raises(ValueError):
        build_report(parse_word("123123", 3), mode="quick")


def test_build_report_validates_a_canonical_word():
    # a closed word canonicalizes without being simple, so a canonical word
    # is no proof that its walk is simple; only census listings skip validate
    word = canonicalize(DirectionWord((1, 1, 2, 2, 3, 3), 3))
    with pytest.raises(NotEmbeddedError):
        build_report(word)


# the census windows that tools/output_digests.py lists, then the complete
# embedded censuses of dimensions 3 to 10, with the modes each is checked
# in: verify mode runs the same oracles in both builders and takes seconds
# a window past the smallest, so only those run in it
BOTH = ("fast", "verify")
LISTED_WINDOWS = (
    ({"dim": 3}, BOTH),
    ({"dim": 4}, BOTH),
    ({"dim": 5, "max_length": 14}, ("fast",)),
    ({"dim": 5, "max_length": 16}, ("fast",)),
    ({"dim": 6, "max_length": 12}, ("fast",)),
    *(({"dim": dim, "embedded_only": True}, BOTH) for dim in range(3, 9)),
    *(({"dim": dim, "embedded_only": True}, ("fast",)) for dim in (9, 10)),
)


@pytest.mark.parametrize("window, modes", LISTED_WINDOWS, ids=repr)
def test_listing_reports_match_their_oracles(monkeypatch, window, modes):
    # the listing reads each class's walk off without validate and builds a
    # report only for the first class of each shape; validate and
    # build_report, one class at a time, are the oracles
    words = enumerate_paths(EnumerationQuery.create(**window))
    walks = [_census_path(word) for word in words]
    assert walks == [validate(word) for word in words]
    shapes = []

    def recorded(walk, reading, mode):
        shapes.append(_report_shape(walk, reading, mode))
        return shapes[-1]

    monkeypatch.setattr(verdict, "_report_shape", recorded)
    for mode in modes:
        documents = [build_report(word, mode=mode).to_json_dict() for word in words]
        shapes.clear()
        listing = verdict._listed_classes(words, mode)
        texts = [text for items in listing for text in items]
        assert texts == [
            json.dumps(document, indent=2).replace("\n", "\n    ")
            for document in documents
        ]
        # classes share a template exactly when their documents agree
        # outside the per-class fields
        shared: dict[object, set[str]] = {}
        for shape, document in zip(shapes, documents, strict=True):
            for name in ("word", "canonical", "gap_invariant"):
                del document[name]
            shared.setdefault(shape, set()).add(json.dumps(document))
        assert all(len(group) == 1 for group in shared.values())
        assert len(set.union(*shared.values())) == len(shared)


REPORTED_WORDS = (("12314234", 4), ("145231425232", 5), ("123123", 3))


@pytest.mark.parametrize("mode", ("fast", "verify"))
def test_build_report_builds_one_repeat_profile(monkeypatch, mode):
    # the canonical form and the gap invariant share one profile
    calls = []
    profile = paths._repeat_profile

    def counted(labels):
        calls.append(labels)
        return profile(labels)

    monkeypatch.setattr(paths, "_repeat_profile", counted)
    for text, dim in REPORTED_WORDS:
        calls.clear()
        build_report(parse_word(text, dim), mode=mode)
        assert len(calls) <= 1, text


@pytest.mark.parametrize("mode", ("fast", "verify"))
def test_build_report_reads_the_walk_once(monkeypatch, mode):
    # verify mode reads the walk once more, for the closure's budget
    # (geometry.closure_within_budget)
    calls = []
    read = paths._read_walk

    def counted(labels, masks):
        calls.append(labels)
        return read(labels, masks)

    for module in (paths, lattice, verdict):
        monkeypatch.setattr(module, "_read_walk", counted)
    for text, dim in REPORTED_WORDS:
        calls.clear()
        build_report(parse_word(text, dim), mode=mode)
        assert len(calls) == (1 if mode == "fast" else 2), text


def test_verify_report_reads_each_anchor_vector_once(monkeypatch):
    # the filled-cube count reads packed lanes, so only the patch anchors
    # read an element's vector: once per closure element
    reads = []
    vector = QuotientElement.vector

    def counted(element):
        reads.append(element)
        return vector.fget(element)

    word = parse_word("13423435241232124215", 5)
    order = reflection_closure(reflection_generators(validate(word))).order
    assert order == 512
    monkeypatch.setattr(QuotientElement, "vector", property(counted))
    build_report(word, mode="verify")
    assert len(reads) == order


def test_build_report_verify_mode_runs_oracles():
    report = build_report(parse_word("12314234", 4), mode="verify")
    checks = report.oracle_checks
    assert checks is not None
    assert checks["closure_order"] == 64
    assert checks["closure_agrees"] is True
    assert checks["filled_cube_counts_equal"] is True
    assert checks["geometric_max_multiplicity"] == 4
    assert checks["geometric_embedded"] is True
    assert checks["geometric_agrees"] is True


def test_verify_mode_runs_both_oracles_above_dimension_five():
    # the patch budget alone gates the oracles: every embedded n=6 class of
    # 12 edges and every 8th of the others, and the sharp and d-series
    # members of dimensions 7 and 8
    classes = enumerate_paths(EnumerationQuery.create(6, length=12))
    embedded = [w for w in classes if decide_embedded(validate(w)).embedded]
    others = [w for w in classes if w not in embedded]
    assert len(embedded) == 6
    words = embedded + others[::8]
    words += [
        family_word(FamilySpec(name, n)) for name in ("sharp", "d-series") for n in (7, 8)
    ]
    for word in words:
        report = build_report(word, mode="verify")
        checks = report.oracle_checks
        assert checks["closure_agrees"] is True, word
        assert checks["filled_cube_counts_equal"] is True, word
        assert checks["geometric_agrees"] is True, word
        assert checks["geometric_embedded"] is report.embedded, word
        assert (checks["geometric_max_multiplicity"] <= 4) is report.embedded, word


def test_build_report_fast_mode_skips_oracles():
    assert build_report(parse_word("12314234", 4)).oracle_checks is None


def test_report_json_document_shape():
    doc = build_report(parse_word("123214123214", 4)).to_json_dict()
    assert doc["schema"] == 1
    assert doc["dim"] == 4
    assert doc["word"] == "123214123214"
    assert doc["canonical"] == "123214123214"
    assert doc["m"] == 12
    assert doc["embedded"] is True
    assert doc["s_q_order"] == 64
    assert doc["lattice_order"] == 4
    assert sorted(doc["lattice_basis"]) == [[0, 0, 0, 1], [0, 0, 1, 0]]
    assert doc["orientable_sigma"] is True
    assert doc["euler_char"] == -32
    assert doc["genus"] == 17
    assert {tuple(s["flips"]) for s in doc["symmetries"]} == {
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 1),
    }
    assert doc["family"] is None
    assert doc["oracle_checks"] is None
    assert doc["bounds"]["edge_bound"]["verdict"] == "maybe-embedded"
    assert doc["bounds"]["direction_load"]["constrained_axes"] == [1, 2]
    assert isinstance(doc["notes"], list)


def test_report_text_rendering_mentions_key_facts():
    text = build_report(parse_word("12321434", 4)).render_text()
    assert "embedded:   yes" in text
    assert "genus: 9" in text
    assert "12321434" in text


def test_reports_for_all_references_are_deterministic():
    for name, text in {**REFERENCE_WORDS_N3, **REFERENCE_WORDS_N4}.items():
        dim = 3 if name in REFERENCE_WORDS_N3 else 4
        first = build_report(parse_word(text, dim)).to_json_dict()
        second = build_report(parse_word(text, dim)).to_json_dict()
        assert first == second
        assert first["embedded"] == (text in EMBEDDED_N4 or dim == 3)


def test_sharp_family_symmetries_high_dimension():
    # 2^64 - 1 sign masks could never be tried one by one; the candidates
    # are the m - 1 masks taking the base vertex to another loop vertex
    report = build_report(family_word(FamilySpec("sharp", 64)))
    assert report.embedded
    assert len(report.symmetries) == 3
