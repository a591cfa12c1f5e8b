"""Acceptance gate: one test per deliverable criterion.

Each test re-derives its facts from scratch (no reliance on other test
files), enforces the stated time budget where one exists, and prints a
single PASS line when satisfied.  Run with ``pytest -v`` for the
per-criterion pass/fail listing, ``-s`` to see the PASS lines live.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from conftest import family_members, parity_mask

from cubeloops import (
    DirectionWord,
    EnumerationQuery,
    FamilySpec,
    build_report,
    canonicalize,
    decide_embedded,
    enumerate_paths,
    expand_patches,
    expand_word,
    family_word,
    parse_word,
    validate,
    vertex_incidence,
)
from cubeloops.cli import main
from cubeloops.groups import (
    QuotientElement,
    close_under_composition,
    flip_subgroup_order,
)
from cubeloops.lattice import (
    direction_product_translation,
    even_translation_lattice,
    pair_translation_lattice,
    parallel_pair_translation,
)
from cubeloops.oracles import (
    ambient_generators,
    ambient_identity,
    compose_ambient,
    compose_quotient,
    cube_edge_generators,
    four_translation_witness,
    lattice_contains,
    quotient_from_vector,
    quotient_identity,
    span_lattice,
)
from cubeloops.reflection import (
    filled_cubes,
    reflection_closure,
    reflection_generators,
)
from cubeloops.verdict import edge_bound


def _canon(text: str, dim: int) -> tuple[int, ...]:
    return canonicalize(parse_word(text, dim)).labels


def test_criterion_01_dimension_three_classification(capsys):
    started = time.monotonic()
    assert main(["enumerate", "--dim", "3", "--json"]) == 0
    elapsed = time.monotonic() - started
    doc = json.loads(capsys.readouterr().out)
    words = {tuple(int(c) for c in row["canonical"]) for row in doc["classes"]}
    assert words == {_canon(t, 3) for t in ("121323", "123123", "12321232")}
    assert doc["count"] == 3
    for row in doc["classes"]:
        assert row["embedded"] is True
        assert row["s_q_order"] == 32
    # independent group-theoretic certificate for the same |S^Q| value
    for row in doc["classes"]:
        path = validate(parse_word(row["canonical"], 3))
        assert reflection_closure(reflection_generators(path)).order == 32
    assert elapsed < 1.0
    print(
        "\n[PRIMARY criterion 1] PASS — dim-3 census: 3 classes "
        f"{{121323, 123123, 12321232}}, all embedded, |S^Q|=32, {elapsed:.2f}s"
    )


def test_criterion_02_dimension_four_length_eight_census():
    started = time.monotonic()
    census = enumerate_paths(EnumerationQuery.create(4, length=8))
    references = {
        "12314243": False,
        "12314342": False,
        "12314234": True,
        "12314324": True,
        "12341234": False,
        "12321434": True,
    }
    assert {w.labels for w in census} == {_canon(t, 4) for t in references}
    embedded = {w.labels for w in census if decide_embedded(validate(w)).embedded}
    assert embedded == {_canon(t, 4) for t, good in references.items() if good}
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(
        "\n[PRIMARY criterion 2] PASS — dim-4 length-8 census: 6 classes, "
        f"embedded subset of size 3 as published, {elapsed:.2f}s"
    )


def test_criterion_03_dimension_four_full_classification(capsys):
    started = time.monotonic()
    assert main(["enumerate", "--dim", "4", "--embedded-only", "--json"]) == 0
    elapsed = time.monotonic() - started
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 5
    shape = sorted((row["m"], row["genus"]) for row in doc["classes"])
    assert shape == [(8, 9), (8, 9), (8, 9), (10, 13), (12, 17)]
    canonicals = {row["canonical"] for row in doc["classes"]}
    assert str(canonicalize(parse_word("1231413214", 4))) == "1231413214"
    assert str(canonicalize(parse_word("123214123214", 4))) == "123214123214"
    assert "1231413214" in canonicals
    assert "123214123214" in canonicals
    assert elapsed < 60.0
    print(
        "\n[PRIMARY criterion 3] PASS — dim-4 embedded classification: 5 classes, "
        f"(m,genus) = 3x(8,9), (10,13), (12,17), {elapsed:.2f}s"
    )


def test_criterion_04_lattice_ground_truth():
    published = {
        "12314243": [(0, 2, 2, 0), (2, 0, 2, 2), (2, 2, 0, 0), (0, 2, 0, 0)],
        "12314342": [(0, 2, 2, 0), (2, 0, 0, 0), (2, 0, 0, 2), (0, 0, 2, 0)],
        "12341234": [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0)],
        "12314234": [(0, 2, 2, 0), (2, 0, 2, 2)],
        "12314324": [(2, 0, 0, 2), (0, 2, 2, 0)],
        "12321434": [(0, 0, 2, 0), (2, 2, 0, 2)],
    }
    orders = {}
    for text, generators in published.items():
        lattice = even_translation_lattice(validate(parse_word(text, 4)))
        assert lattice == span_lattice(4, generators)
        orders[text] = lattice.order
    assert orders["12314243"] == 16
    assert orders["12314234"] == 4
    print(
        "\n[PRIMARY criterion 4] PASS — even-translation subgroups of the six "
        "8-edge classes equal the published spans (orders 16,16,16,4,4,4)"
    )


def test_criterion_05_tri_oracle_agreement(n3_classes, n4_classes, random_n5_paths):
    started = time.monotonic()
    paths = [validate(w) for w in (*n3_classes, *n4_classes)] + list(random_n5_paths)
    assert len(random_n5_paths) == 100
    for path in paths:
        n = path.dim
        decision = decide_embedded(path)
        closure = reflection_closure(reflection_generators(path))
        geometric = vertex_incidence(expand_patches(path))
        closure_verdict = closure.order == 1 << (n + 2)
        assert decision.embedded == closure_verdict == geometric.embedded
        lattice = even_translation_lattice(path)
        assert closure.order == flip_subgroup_order(n) * lattice.order
        counts = set(filled_cubes(closure).values())
        assert len(counts) == 1
        assert closure.order == (1 << n) * counts.pop()
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(
        "\n[PRIMARY criterion 5] PASS — lattice = closure = geometric verdict "
        f"with both group-order laws on {len(paths)} paths "
        f"(3+69 enumerated, 100 random dim-5), {elapsed:.1f}s"
    )


def test_criterion_06_full_edge_generator_closure_orders():
    expected = {3: 1 << 5, 4: 1 << 8, 5: 1 << 9}
    for dim, order in expected.items():
        closure = close_under_composition(cube_edge_generators(dim))
        assert len(closure) == order
    print(
        "\n[PRIMARY criterion 6] PASS — full cube-edge generator closures have "
        "orders 32 (n=3), 256 (n=4), 512 (n=5)"
    )


def test_criterion_07_four_translation_witnesses(n3_classes, n4_classes):
    checked = 0
    for word in (*n3_classes, *n4_classes):
        path = validate(word)
        ambient = ambient_generators(path)
        quotient = reflection_generators(path)
        for beta in range(1, path.dim + 1):
            witness = four_translation_witness(path, beta)
            assert len(witness) <= 4
            amb = ambient_identity(path.dim)
            quo = quotient_identity(path.dim)
            for index in witness:
                amb = compose_ambient(amb, ambient[index])
                quo = compose_quotient(quo, quotient[index])
            assert amb.flips == 0
            assert quo == quotient_identity(path.dim)
            assert sorted(map(abs, amb.translation)) == [0] * (path.dim - 1) + [4]
            assert abs(amb.translation[beta - 1]) == 4
            checked += 1
    print(
        "\n[PRIMARY criterion 7] PASS — length-<=4 generator words composing to "
        f"(+-4e_beta, id) found and verified for all {checked} (path, direction) pairs"
    )


def test_criterion_08_families_embedded_and_orientable():
    started = time.monotonic()
    specs = [FamilySpec("d-series", 3)]
    specs += [spec for n in range(4, 9) for spec in family_members(n)]
    rows = [(spec, family_word(spec)) for spec in specs]
    # the dimension-raising operator on the low-lattice seed
    seed = family_word(FamilySpec("d-series", 3))
    rows += [(f"raised to n={n}", expand_word(seed, n, 3)) for n in range(4, 9)]
    for label, word in rows:
        report = build_report(word)
        assert report["m"] == len(word), label
        assert report["embedded"], label
        assert report["orientable_sigma"], label
    for n in range(3, 9):
        path = validate(family_word(FamilySpec("d-series", n)))
        assert pair_translation_lattice(path).order == 4
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        "\n[PRIMARY criterion 8] PASS — all family members to dim 8 "
        f"({len(rows)} reports) embedded and orientable; repeating series keeps "
        f"pair-lattice order 4 for dims 3..8, {elapsed:.1f}s"
    )


def test_criterion_09_negative_and_odd_dimension_cases():
    five = validate(parse_word("145231425232", 5))
    assert not build_report(five.word)["orientable_sigma"]
    assert lattice_contains(
        pair_translation_lattice(five), direction_product_translation(five)
    )

    fourteen = validate(parse_word("13234121321432", 4))
    diagnostic = edge_bound(4, fourteen.length)
    assert diagnostic.verdict == "ruled-out"
    assert diagnostic.limit == 12
    assert not decide_embedded(fourteen).embedded
    print(
        "\n[PRIMARY criterion 9] PASS — dim-5 example word valid and "
        "non-orientable; 14-edge dim-4 word valid, ruled out by the length "
        "bound, and confirmed non-embedded"
    )


def _random_even_vector(rng: random.Random, dim: int) -> QuotientElement:
    while True:
        vector = tuple(rng.randrange(4) for _ in range(dim))
        try:
            return quotient_from_vector(vector)
        except Exception:
            continue


def test_criterion_10_property_suites(n3_classes, n4_classes):
    # (a) the quotient group is commutative with self-inverse elements
    rng = random.Random(40291)
    for dim in (3, 4, 5):
        identity = quotient_identity(dim)
        for _ in range(10_000):
            a = _random_even_vector(rng, dim)
            b = _random_even_vector(rng, dim)
            ab = compose_quotient(a, b)
            assert ab == compose_quotient(b, a)
            assert compose_quotient(a, a) == identity
        assert compose_quotient(identity, a) == a

    # (b) canonical form is idempotent and constant on symmetry orbits
    for word in (*n3_classes, *n4_classes):
        canon = canonicalize(word)
        assert canonicalize(canon) == canon
        labels = list(word.labels)
        for _ in range(50):
            op = rng.randrange(3)
            if op == 0:
                cut = rng.randrange(len(labels))
                labels = labels[cut:] + labels[:cut]
            elif op == 1:
                labels = labels[::-1]
            else:
                perm = list(range(1, word.dim + 1))
                rng.shuffle(perm)
                labels = [perm[lab - 1] for lab in labels]
            assert canonicalize(DirectionWord(tuple(labels), word.dim)) == canon

    # (c) the combinatorial pair translation equals the group composition
    pairs = 0
    for word in (*n3_classes, *n4_classes):
        path = validate(word)
        gens = reflection_generators(path)
        for i, j in itertools.combinations(range(path.length), 2):
            if word.labels[i] != word.labels[j]:
                continue
            product = compose_quotient(gens[i], gens[j])
            assert parity_mask(product) == 0
            assert product.vector == parallel_pair_translation(path, i, j)
            pairs += 1
    print(
        "\n[PRIMARY criterion 10] PASS — 3x10^4 commutativity/self-inverse "
        "samples, 50-step orbit constancy on all 72 classes, pair translation "
        f"vs composition on {pairs} parallel pairs"
    )
