"""Cone disks, patch expansion, incidence counts, mesh export."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from cubeloops import (
    BadProjectionError,
    BudgetExceededError,
    FamilySpec,
    UnsupportedFormatError,
    decide_embedded,
    expand_patches,
    export_mesh,
    family_word,
    parse_word,
    validate,
    vertex_incidence,
)
from cubeloops.geometry import (
    PATCH_COORDINATE_BUDGET,
    closure_within_budget,
    cone_disk,
)
from cubeloops.groups import QuotientElement, flip_subgroup_order
from cubeloops.oracles import apply_doubled
from cubeloops.reflection import (
    filled_cubes,
    reflection_closure,
    reflection_generators,
)
from cubeloops.verdict import CLOSURE_ORACLE_MAX_DIM


def test_cone_disk_hexagon():
    disk = cone_disk(validate(parse_word("123123", 3)))
    assert disk.apex == (0, 0, 0)
    assert disk.triangle_count == 6
    assert len(disk.rim) == 6
    assert disk.rim[0] == (1, 1, 1)
    assert all(set(map(abs, v)) == {1} for v in disk.rim)
    # fan boundary retraces the loop: consecutive rim vertices differ in
    # exactly the walked coordinate
    labels = (1, 2, 3, 1, 2, 3)
    for i, lab in enumerate(labels):
        nxt = disk.rim[(i + 1) % 6]
        assert [k for k in range(3) if disk.rim[i][k] != nxt[k]] == [lab - 1]


def test_cone_disk_eight_rim():
    assert cone_disk(validate(parse_word("12341234", 4))).triangle_count == 8


def test_expand_patches_identity_patch_and_anchors():
    path = validate(parse_word("123123", 3))
    closure = reflection_closure(reflection_generators(path))
    patches = expand_patches(path, closure)
    disk = cone_disk(path)
    assert patches.count == closure.order == 32
    assert patches.rim_size == 6
    assert patches.triangle_count == 192
    identity_patch = patches.patches[0]
    assert identity_patch.anchor == (0, 0, 0)
    assert identity_patch.rim == disk.rim
    assert {p.anchor for p in patches.patches} == set(filled_cubes(closure).anchors)


@pytest.fixture(scope="module")
def oracle_paths(n4_classes, random_n5_paths):
    """Every n=4 class and ten seeded n=5 loops."""
    return tuple(validate(word) for word in n4_classes) + random_n5_paths[:10]


def test_expand_patches_match_quotient_action(oracle_paths):
    # reference: each closure element's doubled action on the cone disk;
    # the apex is exported from the anchor alone
    for path in oracle_paths:
        closure = reflection_closure(reflection_generators(path))
        disk = cone_disk(path)
        patches = expand_patches(path, closure)
        assert patches.count == closure.order
        vertices = json.loads(export_mesh(patches, format="json"))["vertices"]
        block = patches.rim_size + 1
        for i, (patch, element) in enumerate(zip(patches.patches, closure.elements)):
            assert patch.anchor == element.vector
            rim = tuple(apply_doubled(element, vertex) for vertex in disk.rim)
            assert tuple(tuple(c % 8 for c in v) for v in patch.rim) == rim
            exported = [tuple(v) for v in vertices[i * block : (i + 1) * block]]
            assert exported[0] == apply_doubled(element, disk.apex)
            assert tuple(exported[1:]) == rim


def test_expand_patches_coordinates_in_window(n4_m8_classes):
    for word in n4_m8_classes:
        patches = expand_patches(validate(word))
        for patch in patches.patches:
            assert all(0 <= a <= 3 for a in patch.anchor)
            for vertex in patch.rim:
                assert all(-1 <= c <= 7 for c in vertex)


def test_vertex_incidence_embedded_hexagon():
    incidence = vertex_incidence(expand_patches(validate(parse_word("123123", 3))))
    assert incidence.embedded
    assert incidence.max_multiplicity == 4
    assert set(incidence.counts.values()) == {4}
    assert len(incidence.counts) == 32 * 6 // 4


def test_vertex_incidence_selfintersecting_paths():
    for text in ("12341234", "12314243"):
        incidence = vertex_incidence(expand_patches(validate(parse_word(text, 4))))
        assert not incidence.embedded
        assert incidence.max_multiplicity == 16
    five = vertex_incidence(expand_patches(validate(parse_word("145231425232", 5))))
    assert not five.embedded
    assert five.max_multiplicity == 8


def test_vertex_incidence_counts_always_multiples_of_four(oracle_paths):
    for path in oracle_paths:
        patches = expand_patches(path)
        incidence = vertex_incidence(patches)
        per_vertex = Counter(
            tuple(c % 8 for c in vertex)
            for patch in patches.patches
            for vertex in patch.rim
        )
        assert incidence.counts == dict(per_vertex)
        assert all(c % 4 == 0 for c in incidence.counts.values())
        if incidence.embedded:
            assert set(incidence.counts.values()) == {4}


def test_vertex_incidence_agrees_with_lattice(n4_m8_classes):
    for word in n4_m8_classes:
        path = validate(word)
        geometric = vertex_incidence(expand_patches(path))
        assert geometric.embedded == decide_embedded(path).embedded


def test_torus_mesh_structure():
    path = validate(parse_word("123123", 3))
    patches = expand_patches(path)
    mesh = json.loads(export_mesh(patches, format="json"))
    m = patches.rim_size
    assert len(mesh["vertices"]) == patches.count * (m + 1)
    assert len(mesh["triangles"]) == patches.count * m
    assert len(mesh["patch_of_triangle"]) == len(mesh["triangles"])
    assert all(0 <= c <= 7 for v in mesh["vertices"] for c in v)
    for t, owner in zip(mesh["triangles"], mesh["patch_of_triangle"]):
        lo = owner * (m + 1)
        assert all(lo <= idx < lo + m + 1 for idx in t)
        assert t[0] == lo  # apex leads every fan triangle


def test_export_obj_hexagon_layout():
    patches = expand_patches(validate(parse_word("123123", 3)))
    text = export_mesh(patches, format="obj").decode()
    lines = text.splitlines()
    assert lines[0] == "# periodic reflection surface mesh"
    assert sum(1 for l in lines if l.startswith("g patch_")) == 32
    assert sum(1 for l in lines if l.startswith("v ")) == 224
    assert sum(1 for l in lines if l.startswith("f ")) == 192
    assert not any(l.startswith("# warning") for l in lines)
    assert "v 0.0 0.0 0.0" in lines  # identity apex at the cube center
    assert "v 0.5 0.5 0.5" in lines  # identity rim start
    # each patch's group opens with its apex, the center of its anchor cube
    for index, patch in enumerate(patches.patches):
        apex = apply_doubled(QuotientElement.from_vector(patch.anchor), (0, 0, 0))
        group = lines.index(f"g patch_{index}")
        assert lines[group + 1] == "v " + " ".join(f"{c / 2:.1f}" for c in apex)
    # faces use 1-based indices into a contiguous per-patch vertex block
    first_face = next(l for l in lines if l.startswith("f "))
    assert first_face == "f 1 2 3"


def test_export_obj_projection_drops_axis():
    patches = expand_patches(validate(parse_word("12314234", 4)))
    data = export_mesh(patches, format="obj", projection=(4,)).decode()
    assert "# projection: dropped axes [4]" in data
    v_line = next(l for l in data.splitlines() if l.startswith("v "))
    assert len(v_line.split()) == 4  # "v" plus three coordinates


def test_export_obj_warns_on_selfintersection():
    patches = expand_patches(validate(parse_word("12341234", 4)))
    data = export_mesh(patches, format="obj", projection=(1,)).decode()
    assert "# warning: surface has self-intersections" in data


def test_export_obj_projection_errors():
    patches4 = expand_patches(validate(parse_word("12314234", 4)))
    with pytest.raises(BadProjectionError):
        export_mesh(patches4, format="obj")  # 4 coordinates, none dropped
    with pytest.raises(BadProjectionError):
        export_mesh(patches4, format="obj", projection=(1, 2))
    with pytest.raises(BadProjectionError):
        export_mesh(patches4, format="obj", projection=(5,))
    with pytest.raises(BadProjectionError):
        export_mesh(patches4, format="obj", projection=(1, 1))


def test_export_json_document():
    patches = expand_patches(validate(parse_word("123123", 3)))
    document = json.loads(export_mesh(patches, format="json"))
    assert document["dim"] == 3
    assert len(document["vertices"]) == 224
    assert len(document["triangles"]) == 192
    assert len(document["patch_of_triangle"]) == 192
    assert all(isinstance(c, int) and 0 <= c <= 7 for v in document["vertices"] for c in v)
    assert "warning" not in document

    bad = expand_patches(validate(parse_word("12341234", 4)))
    noisy = json.loads(export_mesh(bad, format="json"))
    assert "self-intersections" in noisy["warning"]


def test_export_json_rejects_projection():
    patches = expand_patches(validate(parse_word("123123", 3)))
    with pytest.raises(BadProjectionError):
        export_mesh(patches, format="json", projection=(1,))


def test_export_unknown_format():
    patches = expand_patches(validate(parse_word("123123", 3)))
    with pytest.raises(UnsupportedFormatError):
        export_mesh(patches, format="stl")


def test_patch_budget_spares_unforced_verify():
    # an even lattice has order at most 2^n and a loop at most 2^n edges,
    # so no closure the unforced verify mode builds reaches the budget
    for n in range(2, CLOSURE_ORACLE_MAX_DIM + 1):
        most = flip_subgroup_order(n) * (1 << n) * ((1 << n) + 1) * n
        assert most <= PATCH_COORDINATE_BUDGET, n
    path = validate(parse_word("123123", 3))
    assert closure_within_budget(path) == reflection_closure(reflection_generators(path))
    # sharp n=12: 2^12 * 4 patches of 45 vertices, about 8.8 million coordinates
    sharp = validate(family_word(FamilySpec("sharp", 12)))
    with pytest.raises(BudgetExceededError):
        closure_within_budget(sharp)
