"""Census searches, named families, dimension raising."""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
from collections import Counter

import pytest
from conftest import family_members, modules_loaded_by

import cubeloops.enumeration as enumeration
import cubeloops.paths as paths
from cubeloops import (
    BadParametersError,
    DirectionWord,
    EnumerationQuery,
    FAMILY_NAMES,
    FamilySpec,
    WordValidationError,
    build_report,
    canonicalize,
    decide_embedded,
    enumerate_paths,
    expand_word,
    family_word,
    parse_word,
    validate,
)
from cubeloops.verdict import edge_bound


def _canonical_set(texts: list[str], dim: int) -> set[tuple[int, ...]]:
    return {canonicalize(parse_word(t, dim)).labels for t in texts}


def test_census_dimension_three(n3_classes):
    assert len(n3_classes) == 3
    assert {w.labels for w in n3_classes} == _canonical_set(
        ["121323", "123123", "12321232"], 3
    )


def test_census_dimension_four_length_eight(n4_m8_classes):
    assert len(n4_m8_classes) == 6
    assert {w.labels for w in n4_m8_classes} == _canonical_set(
        ["12314243", "12314342", "12314234", "12314324", "12341234", "12321434"], 4
    )


def test_census_dimension_four_embedded(n4_embedded_classes):
    assert len(n4_embedded_classes) == 5
    lengths = sorted(len(w) for w in n4_embedded_classes)
    assert lengths == [8, 8, 8, 10, 12]
    compacts = {str(w) for w in n4_embedded_classes}
    assert "1231413214" in compacts
    assert "123214123214" in compacts
    genus_by_length = sorted(
        (len(w), build_report(w)["genus"]) for w in n4_embedded_classes
    )
    assert genus_by_length == [(8, 9), (8, 9), (8, 9), (10, 13), (12, 17)]


def test_census_dimension_four_full(n4_classes):
    assert len(n4_classes) == 69
    by_length: dict[int, int] = {}
    for word in n4_classes:
        by_length[len(word)] = by_length.get(len(word), 0) + 1
    assert by_length == {8: 6, 10: 10, 12: 23, 14: 21, 16: 9}


def test_census_dimension_five_up_to_twelve_edges():
    # the class list itself is pinned: sha256 of the compact words joined
    # by newlines in census order
    census = enumerate_paths(EnumerationQuery.create(5, max_length=12))
    assert len(census) == 193
    digest = hashlib.sha256("\n".join(str(w) for w in census).encode()).hexdigest()
    assert digest == "6c5a37a45175d9e5f7477e02117d91d715e204dedf7ce492329acad5b360927a"


def test_census_dimension_five_up_to_fourteen_edges():
    # the walk's smallest-gap cuts and its child-level home-distance cut
    # all act here; the pin is the sha256 of the compact words joined by
    # newlines in census order
    census = enumerate_paths(EnumerationQuery.create(5, max_length=14))
    assert len(census) == 1494
    digest = hashlib.sha256("\n".join(str(w) for w in census).encode()).hexdigest()
    assert digest == "1f39575020cde6e926c991310b9a32a759799728621af9d742b15cd6c814a013"


def _closed_walks(dim: int, max_length: int) -> list[tuple[int, ...]]:
    """Every closed simple walk from vertex 0 with at most ``max_length``
    edges that uses every direction, labelled in first-occurrence order: a
    plain depth-first walk with no canonicity test, cut only where the edges
    left cannot reach vertex 0 and every unused direction twice."""
    walks = []
    word: list[int] = []

    def walk(vertex: int, visited: int, used: int) -> None:
        left = max_length - len(word) - 1
        for d in range(1, min(used + 1, dim) + 1):
            target = vertex ^ (1 << (d - 1))
            new_used = max(used, d)
            if target == 0 and new_used == dim:
                walks.append((*word, d))
            elif (
                not (visited >> target) & 1
                and target.bit_count() + 2 * (dim - new_used) <= left
            ):
                word.append(d)
                walk(target, visited | 1 << target, new_used)
                word.pop()

    walk(0, 1, 0)
    return walks


def test_census_equals_the_classes_of_all_closed_walks():
    # an independent witness: every closed walk, canonicalized one by one
    for dim, classes in ((5, 193), (6, 165)):
        walks = _closed_walks(dim, 12)
        found = {canonicalize(DirectionWord(w, dim)).labels for w in walks}
        census = enumerate_paths(EnumerationQuery.create(dim, max_length=12))
        assert len(census) == classes, dim
        assert found == {w.labels for w in census}, dim


def test_census_canonicity_calls_are_pinned(monkeypatch):
    # the walk's deterministic work: every closed walk that passes the
    # smallest-gap tests (and, embedded-only, closes at full even-lattice
    # rank) reaches one rotation comparison, so a lost cut raises the count;
    # only a kept walk builds its word, once per class; the reversed
    # profile is built only for a walk that no forward rotation refuses
    calls = builds = reversals = 0
    compare = enumeration._is_least_rotation
    build = enumeration._word_from_profile
    reverse = paths._reversed_profile

    def counting(profile):
        nonlocal calls
        calls += 1
        return compare(profile)

    def counting_builds(profile):
        nonlocal builds
        builds += 1
        return build(profile)

    def counting_reversals(profile):
        nonlocal reversals
        reversals += 1
        return reverse(profile)

    monkeypatch.setattr(enumeration, "_is_least_rotation", counting)
    monkeypatch.setattr(enumeration, "_word_from_profile", counting_builds)
    monkeypatch.setattr(paths, "_reversed_profile", counting_reversals)
    for query, classes, expected_calls, expected_reversals in (
        (EnumerationQuery.create(4), 69, 258, 92),
        (EnumerationQuery.create(5, max_length=14), 1494, 6903, 2758),
        (EnumerationQuery.create(6, max_length=14), 3516, 13490, 6718),
        (EnumerationQuery.create(5, embedded_only=True), 8, 9, 8),
        (EnumerationQuery.create(7, embedded_only=True), 16, 18, 17),
    ):
        calls = builds = reversals = 0
        assert len(enumerate_paths(query)) == classes
        assert calls == expected_calls, query
        assert builds == classes, query
        assert reversals == expected_reversals, query


def test_census_dimension_two():
    census = enumerate_paths(EnumerationQuery.create(2))
    assert [str(w) for w in census] == ["1212"]


def test_open_window_ends_at_the_cube_vertex_count():
    # up to dimension 9 the open end is 2**dim, the value --json prints;
    # from 10 on that end passes the walk's limit and the query is refused,
    # unless the window is empty or a smaller end is given
    for dim in range(2, 10):
        assert EnumerationQuery.create(dim).max_length == 2**dim, dim
    with pytest.raises(ValueError, match=r"up to 2\*\*10 edges"):
        EnumerationQuery.create(10)
    assert EnumerationQuery.create(10, min_length=2000).max_length == 2**10
    assert EnumerationQuery.create(10, max_length=600).max_length == 600


def test_census_rejects_fewer_than_one_job():
    query = EnumerationQuery.create(3)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            enumerate_paths(query, jobs=jobs)


def test_census_matches_brute_force_dimension_three(n3_classes):
    found: set[tuple[int, ...]] = set()
    for length in (6, 8):
        for tail in itertools.product((1, 2, 3), repeat=length - 1):
            word = DirectionWord((1, *tail), 3)
            try:
                validate(word)
            except WordValidationError:
                continue
            found.add(canonicalize(word).labels)
    assert found == {w.labels for w in n3_classes}


def test_census_matches_brute_force_dimension_four_short():
    for length, expected_count in ((8, 6), (10, 10)):
        found: set[tuple[int, ...]] = set()
        for tail in itertools.product((1, 2, 3, 4), repeat=length - 1):
            word = DirectionWord((1, *tail), 4)
            try:
                validate(word)
            except WordValidationError:
                continue
            found.add(canonicalize(word).labels)
        census = enumerate_paths(EnumerationQuery.create(4, length=length))
        assert len(census) == expected_count
        assert found == {w.labels for w in census}


def test_long_even_dimension_classes_never_embed():
    for length in (14, 16):
        for word in enumerate_paths(EnumerationQuery.create(4, length=length)):
            assert not decide_embedded(validate(word)).embedded


def test_census_parallel_workers_agree(n4_classes):
    parallel = enumerate_paths(EnumerationQuery.create(4), jobs=2)
    assert parallel == n4_classes


PINNED_CPU_COUNT = 3


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the worker pool by an in-process map and pin the CPU count
    to PINNED_CPU_COUNT, so the pool path runs on any machine; yields the
    requested worker counts, one per pool opened."""
    recorded = []

    class SerialPool:
        def __init__(self, processes):
            recorded.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items):
            return [fn(*item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: PINNED_CPU_COUNT)
    return recorded


def test_census_worker_count_is_clamped(serial_pool, n4_classes):
    query = EnumerationQuery.create(4)
    assert enumerate_paths(query, jobs=10**6) == n4_classes
    assert serial_pool == [PINNED_CPU_COUNT]
    assert enumerate_paths(query, jobs=2) == n4_classes
    assert serial_pool == [PINNED_CPU_COUNT, 2]


def test_command_line_does_not_load_multiprocessing():
    # the worker pool is imported only when a census runs sharded
    loaded = modules_loaded_by(
        "import contextlib, io\n"
        "import cubeloops.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cubeloops.cli.main(['enumerate', '--dim', '4']) == 0"
    )
    assert "cubeloops.enumeration" in loaded
    assert "multiprocessing" not in loaded


def test_census_shards_partition_the_classes(n4_classes):
    # the search emits each class once as its canonical word, so the shards
    # must be disjoint and together give the unsharded output
    windows = [
        (EnumerationQuery.create(4), {w.labels for w in n4_classes}),
        (EnumerationQuery.create(5, max_length=14, embedded_only=True), None),
        (EnumerationQuery.create(5, max_length=14), None),
    ]
    for query, expected in windows:
        whole = enumeration._search(query)
        labels = [word.labels for word in whole]
        assert all(canonicalize(word) == word for word in whole)
        assert len(set(labels)) == len(labels)
        assert expected is None or set(labels) == expected
        for shards in range(1, 5):
            found = [
                word.labels
                for shard in range(shards)
                for word in enumeration._search(query, shard, shards)
            ]
            assert len(set(found)) == len(found), (query, shards)
            assert set(found) == set(labels), (query, shards)


def test_embedded_census_equals_filtered_full_census(n3_classes, n4_classes):
    # the rank-pruned search against the unpruned census filtered afterwards
    # by the embedded verdict; m <= 16 holds every class of dimension 5
    windows = [(3, None, n3_classes), (4, None, n4_classes)]
    for dim, max_length in ((5, 12), (5, 16), (6, 12)):
        full = enumerate_paths(EnumerationQuery.create(dim, max_length=max_length))
        windows.append((dim, max_length, full))
    for dim, max_length, full in windows:
        query = EnumerationQuery.create(dim, max_length=max_length, embedded_only=True)
        expected = tuple(w for w in full if decide_embedded(validate(w)).embedded)
        assert enumerate_paths(query) == expected, (dim, max_length)


def test_embedded_census_shards_agree(serial_pool):
    # each shard builds the rank state as it walks the levels above its
    # subtrees
    query = EnumerationQuery.create(5, max_length=14, embedded_only=True)
    serial = enumerate_paths(query)
    assert len(serial) == 7
    assert serial_pool == []
    assert enumerate_paths(query, jobs=2) == serial
    assert serial_pool == [2]


@pytest.fixture(scope="module")
def embedded_censuses():
    """The complete embedded census of each dimension 4..10, 12, 14 and 16."""
    return {
        dim: enumerate_paths(EnumerationQuery.create(dim, embedded_only=True))
        for dim in (*range(4, 11), 12, 14, 16)
    }


def test_complete_embedded_censuses(embedded_censuses):
    for dim, classes, longest in (
        (5, 8, 16),
        (6, 12, 20),
        (7, 16, 24),
        (8, 21, 28),
        (9, 27, 32),
        (10, 33, 36),
    ):
        census = embedded_censuses[dim]
        assert len(census) == classes, dim
        assert max(len(w) for w in census) == longest, dim


def test_embedded_census_equals_the_family_classes(embedded_censuses):
    # two independent witnesses of every embedded class: the search, which
    # never calls canonicalize, and the explicit constructions, which go
    # through it
    for dim, classes in (
        (4, 5),
        (5, 8),
        (6, 12),
        (7, 16),
        (8, 21),
        (9, 27),
        (10, 33),
        (12, 48),
        (14, 65),
        (16, 85),
    ):
        members = family_members(dim)
        assert {spec.name for spec in members} == set(FAMILY_NAMES)
        from_families = {canonicalize(family_word(spec)).labels for spec in members}
        census = embedded_censuses[dim]
        assert len(census) == classes, dim
        assert {w.labels for w in census} == from_families, dim


def _family_class(spec: FamilySpec) -> tuple[int, ...]:
    return canonicalize(family_word(spec)).labels


def test_the_three_gamma_families_give_n_squared_over_three_classes():
    # gamma-a, gamma-b and gamma-c over all their parameters: floor(n^2/3)
    # classes (n = 4 gives the five of the paper), gamma-c's the only ones
    # longer than 2n; sharp and d-series add none
    for n in range(3, 31):
        pairs = list(itertools.combinations(range(1, n), 2))
        gamma_a = {_family_class(FamilySpec("gamma-a", n, beta=b)) for b in range(1, n)}
        gamma_b = {_family_class(FamilySpec("gamma-b", n, *pair)) for pair in pairs}
        gamma_c = {_family_class(FamilySpec("gamma-c", n, *pair)) for pair in pairs}
        every = gamma_a | gamma_b | gamma_c
        assert len(every) == n * n // 3, n
        assert len(gamma_a) == n // 2, n
        assert len(gamma_c) == (n - 1) ** 2 // 4, n
        assert not gamma_a & gamma_b, n
        # ceil((n - 1 - k) / 2) classes of length 2n + 2k, 1 <= k <= n - 2
        expected = {2 * n: n * n // 3 - (n - 1) ** 2 // 4}
        expected.update({2 * n + 2 * k: (n - k) // 2 for k in range(1, n - 1)})
        assert Counter(len(labels) for labels in every) == expected, n
        assert _family_class(FamilySpec("d-series", n)) in gamma_b, n
        if n >= 4:
            sharp = _family_class(FamilySpec("sharp", n))
            assert sharp == _family_class(FamilySpec("gamma-c", n, 1, n - 1)), n


def test_census_words_are_canonical_and_valid(n4_classes):
    for word in n4_classes:
        validate(word)
        assert type(word) is DirectionWord
        assert canonicalize(word) == word
        assert word.labels[0] == 1


def test_query_window_normalization():
    q = EnumerationQuery.create(3, min_length=5)
    assert (q.min_length, q.max_length) == (6, 8)
    q = EnumerationQuery.create(3, max_length=9)
    assert (q.min_length, q.max_length) == (6, 8)
    q = EnumerationQuery.create(4, length=10)
    assert (q.min_length, q.max_length) == (10, 10)
    q = EnumerationQuery.create(4, embedded_only=True)
    assert q.max_length == 12
    # the embedded window ends at a proven cap: in even dimension the
    # 4(n-1) the edge bound reports, in odd dimension 8 edges per direction
    for dim in range(3, 10):
        cap = edge_bound(dim, 2 * dim).limit if dim % 2 == 0 else 8 * dim
        q = EnumerationQuery.create(dim, embedded_only=True)
        assert q.max_length == min(1 << dim, cap)
    # beyond the embedded cap the window collapses and the census is empty
    q = EnumerationQuery.create(4, min_length=14, embedded_only=True)
    assert q.min_length > q.max_length
    assert enumerate_paths(q) == ()


def test_query_validation_errors():
    with pytest.raises(ValueError):
        EnumerationQuery.create(1)
    with pytest.raises(ValueError):
        EnumerationQuery.create(3, length=7)
    with pytest.raises(ValueError):
        EnumerationQuery.create(3, length=10)
    with pytest.raises(ValueError):
        EnumerationQuery.create(3, length=6, min_length=6)
    with pytest.raises(ValueError):
        EnumerationQuery.create(3, limit=-1)


def test_query_limit_truncates_sorted_census(n4_classes):
    limited = enumerate_paths(EnumerationQuery.create(4, limit=3))
    assert limited == n4_classes[:3]


def test_census_refuses_a_negative_limit_built_directly(monkeypatch):
    # a query built without create keeps its limit as given; a negative
    # one would slice classes off the end of the census, so it is refused
    # like create refuses it, an empty window's too
    for query in (
        EnumerationQuery(4, 8, 16, False, -1),
        EnumerationQuery(3, 8, 6, limit=-2),
    ):
        with pytest.raises(ValueError, match="^limit must be nonnegative, not -"):
            enumerate_paths(query)
    # a dimension below 2 is refused with create's message before the
    # walk, which raised an IndexError at dimension 0 and walked dimension 1
    # before DirectionWord refused its words
    def no_walk(*args):
        raise AssertionError("the census walk ran")

    monkeypatch.setattr(enumeration, "_search", no_walk)
    for query, dim in ((EnumerationQuery(0, 0, 4), 0), (EnumerationQuery(1, 2, 2), 1)):
        with pytest.raises(ValueError, match=f"^dimension must be at least 2, not {dim}$"):
            enumerate_paths(query)
        with pytest.raises(ValueError, match=f"^dimension must be at least 2, not {dim}$"):
            EnumerationQuery.create(dim)


def test_family_word_reference_values():
    assert str(family_word(FamilySpec("d-series", 3))) == "123123"
    assert str(family_word(FamilySpec("d-series", 4))) == "12341243"
    assert str(family_word(FamilySpec("d-series", 5))) == "1234512543"
    assert str(family_word(FamilySpec("sharp", 4))) == "134243134243"
    assert str(family_word(FamilySpec("gamma-a", 4, beta=2))) == "12342143"
    assert str(family_word(FamilySpec("gamma-b", 4, 1, 3))) == "12341324"
    assert str(family_word(FamilySpec("gamma-c", 4, 1, 2))) == "1234212432"


def test_family_word_low_dimension_member_matches_census(n3_classes):
    member = canonicalize(family_word(FamilySpec("gamma-a", 3, beta=2)))
    assert member == canonicalize(parse_word("121323", 3))
    assert member.labels in {w.labels for w in n3_classes}


def test_family_word_rejects_bad_parameters():
    with pytest.raises(BadParametersError):
        family_word(FamilySpec("gamma-a", 4, beta=4))
    with pytest.raises(BadParametersError):
        family_word(FamilySpec("gamma-a", 4, alpha=1, beta=2))
    with pytest.raises(BadParametersError):
        family_word(FamilySpec("gamma-b", 4, 2, 2))
    with pytest.raises(BadParametersError):
        family_word(FamilySpec("d-series", 2))
    with pytest.raises(BadParametersError):
        family_word(FamilySpec("d-series", 4, beta=1))
    with pytest.raises(BadParametersError):
        family_word(FamilySpec("sharp", 3))
    with pytest.raises(BadParametersError):
        family_word(FamilySpec("spiral", 4))


def test_sharp_family_reaches_the_length_ceiling():
    for n in (4, 5, 6):
        word = family_word(FamilySpec("sharp", n))
        assert len(word) == 4 * (n - 1)
        if n % 2 == 0:
            assert decide_embedded(validate(word)).embedded


def test_expand_word_reproduces_the_repeating_series():
    seed = parse_word("123123", 3)
    for n in (4, 5, 6, 7):
        raised = expand_word(seed, n, 3)
        assert raised == family_word(FamilySpec("d-series", n))
    # raising along a different direction still gives valid embedded loops
    other = expand_word(seed, 5, 1)
    path = validate(other)
    assert decide_embedded(path).embedded


def test_expand_word_reads_each_walk_once(monkeypatch):
    # the seed's one reading is validated and gives its pair lattice; the
    # raised word is read once more, to validate it
    lengths = []
    read = paths._read_walk

    def counted(word):
        lengths.append(len(word))
        return read(word)

    monkeypatch.setattr(paths, "_read_walk", counted)
    expand_word(parse_word("121323", 3), 6, 3)
    assert lengths == [6, 12]


def test_expand_word_rejects_bad_requests():
    seed = parse_word("123123", 3)
    with pytest.raises(BadParametersError):
        expand_word(seed, 3, 1)
    with pytest.raises(BadParametersError):
        expand_word(seed, 5, 4)
    # a seed whose pair lattice is full has no raising construction
    with pytest.raises(BadParametersError):
        expand_word(parse_word("12314243", 4), 5, 1)

