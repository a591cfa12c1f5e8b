"""The JSON writer against the json module, on every document the command
line writes and on random values."""

from __future__ import annotations

import json
import random

import pytest
from test_golden import CASES

from cubeloops import (
    FAMILY_NAMES,
    FamilySpec,
    build_report,
    family_word,
    parse_word,
    validate,
)
from cubeloops.cli import main
from cubeloops.jsontext import Encoded, dumps, stream
from cubeloops.oracles import mesh_document

INDENTS = (1, 2)


def _assert_same_text(value):
    for indent in INDENTS:
        assert dumps(value, indent) == json.dumps(value, indent=indent)


def _golden_paths():
    return {name: validate(parse_word(word, dim)) for name, (word, dim) in CASES.items()}


def _one_member_per_family(dim):
    specs = {
        "gamma-a": FamilySpec("gamma-a", dim, beta=dim - 1),
        "gamma-b": FamilySpec("gamma-b", dim, 1, dim - 1),
        "gamma-c": FamilySpec("gamma-c", dim, 1, dim - 1),
        "d-series": FamilySpec("d-series", dim),
        "sharp": FamilySpec("sharp", dim),
    }
    assert set(specs) == set(FAMILY_NAMES)
    return specs.values()


def test_golden_reports():
    for path in _golden_paths().values():
        _assert_same_text(build_report(path.word).to_json_dict())


def test_n4_class_reports_fast_and_verify(n4_classes):
    for word in n4_classes:
        for mode in ("fast", "verify"):
            _assert_same_text(build_report(word, mode=mode).to_json_dict())


def test_family_reports():
    for dim in range(4, 9):
        for spec in _one_member_per_family(dim):
            report = build_report(family_word(spec), family=spec._asdict())
            _assert_same_text(report.to_json_dict())


def test_golden_mesh_documents():
    documents = [mesh_document(path) for path in _golden_paths().values()]
    assert any("warning" in document for document in documents)
    for document in documents:
        _assert_same_text(document)


_TEXT = ["", "a", "é", "日本", "\U0001f600", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/"]


def _random_text(rng):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(4)))


def _random_value(rng, depth):
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return rng.choice([0, 1, -1, 7, -(10**6), 2**63, 2**64 + 1, -(2**70), 10**30])
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return None
    if kind == 3:
        return _random_text(rng)
    if kind == 4:
        return rng.choice([[], {}, ()])
    size = rng.randrange(1, 5)
    if kind == 5:
        return [_random_value(rng, depth - 1) for _ in range(size)]
    if kind == 6:
        return tuple(_random_value(rng, depth - 1) for _ in range(size))
    if kind == 7:
        # int arrays with a bool mixed in now and then
        return [rng.choice([True, 3, -2, 2**65]) if rng.random() < 0.2 else k for k in range(size)]
    return {_random_text(rng): _random_value(rng, depth - 1) for _ in range(size)}


def test_random_values():
    rng = random.Random(20261018)
    values = [_random_value(rng, 4) for _ in range(2000)]
    values += [[True, False], [1, True], (1, (2, (3, ()))), {"": [], "k": {}}]
    # arrays of int arrays, some empty or with a bool inside
    values += [[[1, 2], (3,)], [(1,), [], (2, 3)], [[], ()], [[1, 2], [3, True]], [[1], [None]]]
    for value in values:
        _assert_same_text(value)


def _assert_streams_as_dumps(members):
    # members are (key, value, streamed); a streamed value is a list of
    # parts, handed to stream as a generator and to json.dumps joined
    whole = {
        key: [item for part in value for item in part] if streamed else value
        for key, value, streamed in members
    }
    for indent in INDENTS:
        document = {
            key: (part for part in value) if streamed else value
            for key, value, streamed in members
        }
        assert "".join(stream(document, indent)) == json.dumps(whole, indent=indent)


def test_stream_matches_dumps_of_the_joined_document():
    rng = random.Random(7)

    def parts():
        # zero parts now and then: the member is then an empty array
        return [
            [_random_value(rng, 3) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randrange(4))
        ]

    def plain():
        return _random_value(rng, 3)

    for _ in range(200):
        _assert_streams_as_dumps([("a", parts(), True)])
        # first, with a plain member after it as the mesh warning is
        _assert_streams_as_dumps([("a", parts(), True), ("b", plain(), False)])
        _assert_streams_as_dumps(
            [("a", plain(), False), ("b", parts(), True), ("c", plain(), False)]
        )
        _assert_streams_as_dumps([("a", plain(), False), ("\u00e9\n", parts(), True)])
        _assert_streams_as_dumps(
            [("a", parts(), True), ("b", parts(), True), ("c", _random_text(rng), False)]
        )
    _assert_streams_as_dumps([("empty", [], True)])
    _assert_streams_as_dumps([("a", [[], [1, 2], [], [(3, 4)], []], True)])
    _assert_streams_as_dumps([])


def test_encoded_text_is_written_as_it_is():
    # a value's text, indented for its place three levels down, stands in for
    # the value, as a member of a document and as an item of a streamed part
    rng = random.Random(11)
    for _ in range(100):
        value = _random_value(rng, 3)
        for indent in INDENTS:
            text = dumps(value, indent).replace("\n", "\n" + " " * 3 * indent)
            expected = json.dumps({"a": [{"b": value}]}, indent=indent)
            assert dumps({"a": [{"b": Encoded(text)}]}, indent) == expected
            streamed = stream({"a": iter([[{"b": Encoded(text)}]])}, indent)
            assert "".join(streamed) == expected


@pytest.mark.parametrize("value", [1.5, [0.0], {1, 2}, {"a": {3}}, {1: "x"}, {"a": {None: 1}}, b"x"])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value, 2)


# ---------------------------------------------------------------------------
# the command line


def test_check_and_family_json_match_json_dumps(capsys):
    for name, (word, dim) in CASES.items():
        assert main(["check", "--dim", str(dim), "--word", word, "--json"]) == 0
        expected = build_report(parse_word(word, dim)).to_json_dict()
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n", name
    for spec in _one_member_per_family(6):
        argv = ["family", "--name", spec.name, "--dim", "6", "--json"]
        for flag, value in (("--alpha", spec.alpha), ("--beta", spec.beta)):
            if value is not None:
                argv += [flag, str(value)]
        assert main(argv) == 0
        report = build_report(family_word(spec), family=spec._asdict())
        assert capsys.readouterr().out == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_export_json_matches_the_streamed_encoder(capsys):
    # the text json.JSONEncoder(indent=1).iterencode streams, with a newline
    paths = _golden_paths()
    paths["sharp_n6"] = validate(family_word(FamilySpec("sharp", 6)))
    for name, path in paths.items():
        argv = ["export", "--dim", str(path.dim), "--word", str(path.word), "--format", "json"]
        assert main(argv) == 0
        chunks = json.JSONEncoder(indent=1).iterencode(mesh_document(path))
        assert capsys.readouterr().out == "".join(chunks) + "\n", name
