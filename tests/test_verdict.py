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
from cubeloops import oracles, paths, verdict
from cubeloops.verdict import _report_shape, edge_bound, render_text
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
        report = build_report(word)
        assert report["orientable_sigma"] and report["orientable_quotient_lambda0"]
        assert report["orientable_quotient_2z"]


def test_decide_orientable_odd_dimension_pins():
    report = build_report(parse_word("123123", 3))
    assert report["orientable_sigma"] is True
    assert report["orientable_quotient_lambda0"] is True
    assert report["orientable_quotient_2z"] is False

    report = build_report(parse_word("145231425232", 5))
    assert report["orientable_sigma"] is False
    assert report["orientable_quotient_lambda0"] is False
    assert report["orientable_quotient_2z"] is False


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
        assert (report["euler_char"], report["genus"]) == expected


def test_euler_genus_consistency(n4_embedded_classes):
    for word in n4_embedded_classes:
        report = build_report(word)
        chi, genus = report["euler_char"], report["genus"]
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
        for field, key in (
            ("embedded", "embedded"),
            ("reflection_group_order", "s_q_order"),
            ("euler_char", "euler_char"),
            ("genus", "genus"),
        ):
            assert getattr(decision, field) == report[key], (word, field)
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
    load = build_report(g8.word)["bounds"]["direction_load"]
    assert load["verdict"] == "maybe-embedded"
    assert load["counts"] == [4, 4, 2, 2]
    assert load["constrained_axes"] == [1, 2]
    # the four-edge directions force zero entries across the whole lattice
    for row in oracles.basis_vectors(even_translation_lattice(g8)):
        assert row[0] == 0 and row[1] == 0

    overloaded = validate(parse_word("12131214121324", 4))
    load = build_report(overloaded.word)["bounds"]["direction_load"]
    assert load["verdict"] == "ruled-out"
    assert load["overloaded_axes"] == [1]
    assert load["counts"][0] == 6
    assert not decide_embedded(overloaded).embedded

    g3 = validate(parse_word("12314234", 4))
    load = build_report(g3.word)["bounds"]["direction_load"]
    assert load["verdict"] == "maybe-embedded"
    assert load["constrained_axes"] == []

    odd = build_report(parse_word("123123", 3))["bounds"]["direction_load"]
    assert odd["verdict"] == "not-applicable"
    assert odd["counts"] == [2, 2, 2]


def test_four_edge_direction_constraint_on_embedded(n4_classes):
    for word in n4_classes:
        path = validate(word)
        if not decide_embedded(path).embedded:
            continue
        load = build_report(word)["bounds"]["direction_load"]
        assert load["verdict"] == "maybe-embedded"
        for axis in load["constrained_axes"]:
            for row in oracles.basis_vectors(even_translation_lattice(path)):
                assert row[axis - 1] == 0


def test_build_report_reference_g6():
    report = build_report(parse_word("12321434", 4))
    assert report["embedded"]
    assert report["genus"] == 9
    assert report["euler_char"] == -16
    assert [s["flips"] for s in report["symmetries"]] == [[0, 0, 1, 0]]
    assert report["m"] == 8
    assert report["s_q_order"] == 64


def test_build_report_reference_hexagon():
    report = build_report(parse_word("123123", 3))
    assert report["embedded"]
    assert report["s_q_order"] == 32
    assert report["lattice_order"] == 8
    assert report["euler_char"] == -2
    assert report["genus"] is None


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
    # the listing reads each class's walk without validate's checks and
    # builds a report only for the first class of each shape;
    # build_report, which validates one class at a time, is the oracle
    words = enumerate_paths(EnumerationQuery.create(**window))
    shapes = []

    def recorded(walk, mode):
        shapes.append(_report_shape(walk, mode))
        return shapes[-1]

    monkeypatch.setattr(verdict, "_report_shape", recorded)
    for mode in modes:
        documents = [build_report(word, mode=mode) for word in words]
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
    # the canonical form and the gap invariant are read off the one
    # reading that validates the word, not off profiles of their own
    readings, used = [], []
    read = paths._read_walk
    canonical_form, gap_invariant = verdict._canonical_form, verdict._gap_invariant

    def recorded(word):
        readings.append(read(word))
        return readings[-1]

    def canonical(profile, dim):
        used.append(profile)
        return canonical_form(profile, dim)

    def invariant(gaps, forms):
        used.append(gaps)
        return gap_invariant(gaps, forms)

    monkeypatch.setattr(paths, "_read_walk", recorded)
    monkeypatch.setattr(verdict, "_canonical_form", canonical)
    monkeypatch.setattr(verdict, "_gap_invariant", invariant)
    for text, dim in REPORTED_WORDS:
        readings.clear()
        used.clear()
        build_report(parse_word(text, dim), mode=mode)
        profile, gaps = used
        assert profile is readings[0].profile and gaps is readings[0].gaps, text


def _count_readings(monkeypatch) -> list[DirectionWord]:
    """The words of every walk read from here on, in reading order: each
    module that binds ``paths._read_walk`` gets a counted one."""
    calls = []
    read = paths._read_walk

    def counted(word):
        calls.append(word)
        return read(word)

    for module in (paths, verdict, oracles):
        monkeypatch.setattr(module, "_read_walk", counted)
    return calls


@pytest.mark.parametrize("mode", ("fast", "verify"))
def test_build_report_reads_the_walk_once(monkeypatch, mode):
    # one reading validates the word and feeds the whole report, the
    # verify-mode oracles too: the closure's budget reduces the rows that
    # path carries (geometry.closure_within_budget), and reads no walk
    calls = _count_readings(monkeypatch)
    for text, dim in REPORTED_WORDS:
        calls.clear()
        word = parse_word(text, dim)
        build_report(word, mode=mode)
        assert calls == [word], text


@pytest.mark.parametrize("mode", ("fast", "verify"))
@pytest.mark.parametrize("listing", ("_listed_lines", "_listed_classes"))
def test_listings_read_each_walk_once(monkeypatch, listing, mode):
    # each class's one reading gives its verdict, and in the JSON listing
    # its report's inputs; in verify mode it feeds the oracles too
    calls = _count_readings(monkeypatch)
    words = enumerate_paths(EnumerationQuery.create(4))
    [*getattr(verdict, listing)(words, mode)]
    assert calls == [*words]


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
    checks = report["oracle_checks"]
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
        checks = report["oracle_checks"]
        assert checks["closure_agrees"] is True, word
        assert checks["filled_cube_counts_equal"] is True, word
        assert checks["geometric_agrees"] is True, word
        assert checks["geometric_embedded"] is report["embedded"], word
        assert (checks["geometric_max_multiplicity"] <= 4) is report["embedded"], word


def test_build_report_fast_mode_skips_oracles():
    assert build_report(parse_word("12314234", 4))["oracle_checks"] is None


def test_report_json_document_shape():
    doc = build_report(parse_word("123214123214", 4))
    assert [*doc] == [
        "schema",
        "dim",
        "word",
        "canonical",
        "m",
        "embedded",
        "s_q_order",
        "lattice_basis",
        "lattice_order",
        "orientable_sigma",
        "orientable_quotient_lambda0",
        "orientable_quotient_2z",
        "euler_char",
        "genus",
        "symmetries",
        "family",
        "oracle_checks",
        "gap_invariant",
        "bounds",
        "notes",
    ]
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
    text = render_text(build_report(parse_word("12321434", 4)))
    assert "embedded:   yes" in text
    assert "genus: 9" in text
    assert "12321434" in text


_NOTES = (
    "note:       walk base normalized to the all-plus cube corner; every "
    "reported quantity is independent of that choice\n"
    "note:       the lattice shown is the part determined by the word alone; "
    "an initial surface with extra sign symmetries can enlarge the full "
    "translation lattice (the symmetry list above is the available proxy)"
)


def test_report_text_pins():
    # the text is read off the document: the spaced canonical word from
    # its string up to dimension 9, the lattice rows doubled, the flips
    report = build_report(parse_word("12321434", 4), mode="verify")
    assert render_text(report) == (
        "word:       12321434\n"
        "canonical:  1 2 3 4 3 2 1 4  (12343214)\n"
        "dim:        4   edges: 8\n"
        "embedded:   yes   (lattice order 4, reflection group order 64)\n"
        "orientable: surface yes; quotient/pair-lattice yes; "
        "quotient/even-translations yes\n"
        "euler char: -16   genus: 9\n"
        "lattice:    (2,2,0,2) (0,0,2,0)\n"
        "symmetries: (0,0,1,0)\n"
        "bounds:     maybe-embedded (within the limit 12); "
        "direction load maybe-embedded\n"
        "oracles:    {'closure_order': 64, 'closure_agrees': True, "
        "'filled_cube_counts_equal': True, 'geometric_max_multiplicity': 4, "
        "'geometric_embedded': True, 'geometric_agrees': True}\n" + _NOTES
    )
    spec = FamilySpec("d-series", 11)
    report = build_report(family_word(spec), family=spec._asdict())
    assert render_text(report) == (
        "word:       1 2 3 4 5 6 7 8 9 10 11 1 2 11 10 9 8 7 6 5 4 3\n"
        "canonical:  1 2 3 4 5 6 7 8 9 10 11 9 8 7 6 5 4 3 2 1 10 11\n"
        "dim:        11   edges: 22\n"
        "embedded:   yes   (lattice order 8, reflection group order 8192)\n"
        "orientable: surface yes; quotient/pair-lattice yes; "
        "quotient/even-translations no\n"
        "euler char: -4608   genus: n/a\n"
        "lattice:    (0,0,2,0,2,0,2,0,2,0,2) (2,0,0,2,0,2,0,2,0,2,0) "
        "(2,2,0,0,0,0,0,0,0,0,0)\n"
        "symmetries: none\n"
        "bounds:     maybe-embedded (within the working limit 82); "
        "direction load not-applicable\n"
        "family:     {'name': 'd-series', 'dim': 11, 'alpha': None, 'beta': None}\n"
        + _NOTES
    )


def test_reports_for_all_references_are_deterministic():
    for name, text in {**REFERENCE_WORDS_N3, **REFERENCE_WORDS_N4}.items():
        dim = 3 if name in REFERENCE_WORDS_N3 else 4
        first = build_report(parse_word(text, dim))
        second = build_report(parse_word(text, dim))
        assert first == second
        assert first["embedded"] == (text in EMBEDDED_N4 or dim == 3)


def test_sharp_family_symmetries_high_dimension():
    # 2^64 - 1 sign masks could never be tried one by one; the candidates
    # are the m - 1 masks taking the base vertex to another loop vertex
    report = build_report(family_word(FamilySpec("sharp", 64)))
    assert report["embedded"]
    assert len(report["symmetries"]) == 3
