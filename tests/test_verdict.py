"""Embeddedness, orientability, Euler data, bounds, full reports."""

from __future__ import annotations

import pytest

from cubeloops import (
    FamilySpec,
    NotClosedError,
    build_report,
    decide_embedded,
    family_word,
    parse_word,
    validate,
)
from cubeloops.lattice import even_translation_lattice
from cubeloops.reflection import reflection_closure, reflection_generators
from cubeloops.verdict import edge_bound, per_direction_bound
from conftest import REFERENCE_WORDS_N3, REFERENCE_WORDS_N4

EMBEDDED_N4 = {"12314234", "12314324", "12321434", "1231413214", "123214123214"}


def test_decide_embedded_eight_edge_census():
    for text in ("12314234", "12314324", "12321434"):
        decision = decide_embedded(validate(parse_word(text, 4)))
        assert decision.embedded
        assert decision.lattice_order == 4
        assert decision.embedded_order == 4
        assert decision.reflection_group_order == 64
    for text in ("12314243", "12314342", "12341234"):
        decision = decide_embedded(validate(parse_word(text, 4)))
        assert not decision.embedded
        assert decision.lattice_order >= 8
        assert decision.reflection_group_order >= 128


def test_decide_embedded_every_small_odd_class(n3_classes):
    # dimension three admits no self-intersections at all
    for word in n3_classes:
        decision = decide_embedded(validate(word))
        assert decision.embedded
        assert decision.lattice_order == 8
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
    flags = build_report("123123", dim=3).orientable
    assert flags.surface is True
    assert flags.quotient_by_pair_lattice is True
    assert flags.quotient_by_even_translations is False

    flags = build_report("145231425232", dim=5).orientable
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
        report = build_report(text, dim=dim)
        assert (report.euler_char, report.genus) == expected


def test_euler_genus_consistency(n4_embedded_classes):
    for word in n4_embedded_classes:
        report = build_report(word)
        chi, genus = report.euler_char, report.genus
        assert chi % 2 == 0
        assert genus is not None
        assert chi == 2 - 2 * genus


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
    load = per_direction_bound(g8)
    assert load.verdict == "maybe-embedded"
    assert load.counts == (4, 4, 2, 2)
    assert load.constrained_axes == (1, 2)
    # the four-edge directions force zero entries across the whole lattice
    for row in even_translation_lattice(g8).basis_vectors():
        assert row[0] == 0 and row[1] == 0

    overloaded = validate(parse_word("12131214121324", 4))
    load = per_direction_bound(overloaded)
    assert load.verdict == "ruled-out"
    assert load.overloaded_axes == (1,)
    assert load.counts[0] == 6
    assert not decide_embedded(overloaded).embedded

    g3 = validate(parse_word("12314234", 4))
    assert per_direction_bound(g3).verdict == "maybe-embedded"
    assert per_direction_bound(g3).constrained_axes == ()

    odd = per_direction_bound(validate(parse_word("123123", 3)))
    assert odd.verdict == "not-applicable"
    assert odd.counts == (2, 2, 2)


def test_four_edge_direction_constraint_on_embedded(n4_classes):
    for word in n4_classes:
        path = validate(word)
        if not decide_embedded(path).embedded:
            continue
        load = per_direction_bound(path)
        assert load.verdict == "maybe-embedded"
        for axis in load.constrained_axes:
            for row in even_translation_lattice(path).basis_vectors():
                assert row[axis - 1] == 0


def test_build_report_reference_g6():
    report = build_report("12321434", dim=4)
    assert report.embedded
    assert report.genus == 9
    assert report.euler_char == -16
    assert {s.flips for s in report.symmetries} == {(0, 0, 1, 0)}
    assert report.length == 8
    assert report.reflection_group_order == 64


def test_build_report_reference_hexagon():
    report = build_report("123123", dim=3)
    assert report.embedded
    assert report.reflection_group_order == 32
    assert report.lattice.order == 8
    assert report.euler_char == -2
    assert report.genus is None


def test_build_report_propagates_validation_errors():
    with pytest.raises(NotClosedError):
        build_report("32123121", dim=3)
    with pytest.raises(ValueError):
        build_report("123123", dim=3, mode="quick")


def test_build_report_verify_mode_runs_oracles():
    report = build_report("12314234", dim=4, mode="verify")
    checks = report.oracle_checks
    assert checks is not None
    assert checks["closure_order"] == 64
    assert checks["closure_agrees"] is True
    assert checks["filled_cube_counts_equal"] is True
    assert checks["geometric_max_multiplicity"] == 4
    assert checks["geometric_embedded"] is True
    assert checks["geometric_agrees"] is True


def test_build_report_fast_mode_skips_oracles():
    assert build_report("12314234", dim=4).oracle_checks is None


def test_report_json_document_shape():
    doc = build_report("123214123214", dim=4).to_json_dict()
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
    text = build_report("12321434", dim=4).render_text()
    assert "embedded:   yes" in text
    assert "genus: 9" in text
    assert "12321434" in text


def test_reports_for_all_references_are_deterministic():
    for name, text in {**REFERENCE_WORDS_N3, **REFERENCE_WORDS_N4}.items():
        dim = 3 if name in REFERENCE_WORDS_N3 else 4
        first = build_report(text, dim=dim).to_json_dict()
        second = build_report(text, dim=dim).to_json_dict()
        assert first == second
        assert first["embedded"] == (text in EMBEDDED_N4 or dim == 3)


def test_sharp_family_symmetries_high_dimension():
    # 2^64 - 1 sign masks could never be tried one by one; the candidates
    # are the m - 1 masks taking the base vertex to another loop vertex
    report = build_report(family_word(FamilySpec("sharp", 64)))
    assert report.embedded
    assert len(report.symmetries) == 3
