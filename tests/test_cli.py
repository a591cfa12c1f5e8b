"""End-to-end command-line behavior: output shapes and exit codes."""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import pathlib
import re
import resource
import runpy
import subprocess
import sys
import time

import pytest
from conftest import fresh_interpreter_env

import cubeloops
import cubeloops.errors as errors
import cubeloops.geometry as geometry
import cubeloops.jsontext as jsontext
import cubeloops.paths as paths
import cubeloops.reflection as reflection
import cubeloops.verdict as verdict
from cubeloops import (
    EnumerationQuery,
    FamilySpec,
    build_report,
    enumerate_paths,
    family_word,
    parse_word,
    validate,
)
from cubeloops.cli import _build_parser, _parse_args, main
from cubeloops.verdict import _listed_classes


def test_check_text_report(capsys):
    assert main(["check", "--dim", "4", "--word", "12321434"]) == 0
    out = capsys.readouterr().out
    assert "embedded:   yes" in out
    assert "genus: 9" in out
    assert "12321434" in out


def test_check_json_report(capsys):
    assert main(["check", "--dim", "4", "--word", "123214123214", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["embedded"] is True
    assert doc["genus"] == 17
    assert doc["lattice_order"] == 4


def test_check_verify_mode(capsys):
    code = main(["check", "--dim", "3", "--word", "123123", "--mode", "verify", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    checks = doc["oracle_checks"]
    assert checks["closure_order"] == 32
    assert checks["closure_agrees"] is True
    assert checks["geometric_agrees"] is True


def test_check_invalid_word_exit_code(capsys):
    assert main(["check", "--dim", "3", "--word", "32123121"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("NotClosed:")


def test_check_bad_label_exit_code(capsys):
    assert main(["check", "--dim", "3", "--word", "129123"]) == 2
    assert capsys.readouterr().err.startswith("BadLabel:")
    # a dimension below 2 is named before any label is checked
    assert main(["check", "--dim", "0", "--word", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: dimension must be at least 2, not 0")


@pytest.mark.parametrize("word", ["\u0661\u0662\u0663\u0661\u0662\u0663", "12\u00b3"])
def test_labels_are_ascii_digits(capsys, word):
    # Arabic-Indic digits and superscripts pass str.isdigit, but no label
    # is spelled with them
    message = f"not a direction label: {word!r}"
    with pytest.raises(errors.BadLabelError, match=re.escape(message)):
        parse_word(word, 3)
    assert main(["check", "--dim", "3", "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"BadLabel: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    ("condition", "word"),
    [
        ("BadLabel", "1241"),
        ("OddLength", "123"),
        ("NotClosed", "1213"),
        ("MissingDirection", "1212"),
        ("NotEmbedded", "121233"),
    ],
)
def test_each_word_error_is_named_on_stderr(capsys, condition, word):
    # the label is the name of the error class without its Error suffix
    with pytest.raises(getattr(errors, condition + "Error")):
        validate(parse_word(word, 3))
    assert main(["check", "--dim", "3", "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(condition + ": ")
    assert captured.out == ""


def test_check_refuses_a_short_word_in_a_high_dimension_quickly(capsys):
    # counts are taken over the word, and the message names ten directions
    start = time.perf_counter()
    assert main(["check", "--dim", "10000000", "--word", "1", "1"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err == (
        "MissingDirection: direction(s) [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and "
        "9999989 more never used; the loop must span all 10000000 directions\n"
    )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no limit on int to str conversion",
)
def test_reports_print_integers_past_the_default_digit_limit(capsys):
    # s_q_order = 2**15000 flips times lattice order 4 has 4,517 digits,
    # past the default limit of 4,300; main lifts it for the call only
    before = sys.get_int_max_str_digits()
    assert main(["family", "--name", "d-series", "--dim", "15000", "--json"]) == 0
    assert sys.get_int_max_str_digits() == before
    captured = capsys.readouterr()
    assert captured.err == ""
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(captured.out)
    finally:
        sys.set_int_max_str_digits(before)
    assert doc["s_q_order"] == 2**15002


def test_check_separated_word_above_nine_directions(capsys):
    word = "1 2 3 4 5 6 7 8 9 10 1 2 10 9 8 7 6 5 4 3"
    assert main(["check", "--dim", "10", "--word", *word.split()]) == 0
    out = capsys.readouterr().out
    assert "dim:        10" in out
    assert "embedded:   yes" in out


def test_enumerate_text_listing(capsys):
    assert main(["enumerate", "--dim", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "3 classes"
    assert len(lines) == 4
    assert all(line.startswith("m=") for line in lines[:-1])
    assert all("embedded" in line for line in lines[:-1])


def test_enumerate_json_listing(capsys):
    assert main(["enumerate", "--dim", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["dim"] == 3
    assert doc["count"] == 3
    assert doc["query"]["min_length"] == 6
    assert doc["query"]["max_length"] == 8
    assert len(doc["classes"]) == 3
    assert all(c["embedded"] for c in doc["classes"])


def test_enumerate_embedded_only(capsys):
    assert main(["enumerate", "--dim", "4", "--embedded-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "5 classes"
    assert any("genus=17" in line for line in lines)


def test_enumerate_limit_singular(capsys):
    assert main(["enumerate", "--dim", "3", "--limit", "1"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "1 class"


def test_enumerate_jobs_agree(capsys):
    assert main(["enumerate", "--dim", "4", "--length", "10"]) == 0
    single = capsys.readouterr().out
    assert main(["enumerate", "--dim", "4", "--length", "10", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == single


def test_enumerate_bad_window(capsys):
    assert main(["enumerate", "--dim", "3", "--length", "7"]) == 2
    assert capsys.readouterr().err == (
        "invalid request: length must be even and within [6, 2**3] "
        "for dimension 3, not 7\n"
    )


def test_enumerate_refuses_windows_the_walk_cannot_finish(capsys):
    # open windows end at 2^dim edges, past the walk's recursion limit;
    # 2**15000 has more digits than int-to-str conversion allows
    for dim in ("10", "64", "15000"):
        start = time.perf_counter()
        assert main(["enumerate", "--dim", dim]) == 2, dim
        assert time.perf_counter() - start < 0.5, dim
        captured = capsys.readouterr()
        assert captured.out == "", dim
        assert captured.err == (
            f"invalid request: a census window up to 2**{dim} edges "
            "exceeds the walk's limit of 512; give a smaller --max-length\n"
        ), dim


def test_enumerate_max_length_names_the_window_it_refuses(capsys):
    # a window given by --max-length is refused with its own end
    assert main(["enumerate", "--dim", "10", "--max-length", "600"]) == 2
    assert capsys.readouterr().err == (
        "invalid request: a census window up to 600 edges exceeds the walk's "
        "limit of 512; give a smaller --max-length\n"
    )
    # an exact length is refused with the flag that gave it
    assert main(["enumerate", "--dim", "10", "--length", "600"]) == 2
    assert capsys.readouterr().err == (
        "invalid request: a census window up to 600 edges exceeds the walk's "
        "limit of 512; give a smaller --length\n"
    )


def _enumerate_under_512_mb(*argv: str) -> subprocess.CompletedProcess:
    # 2**dim for dim = 10^10 has 10^10 bits, 1.25 GB: under a 512 MB
    # address-space cap, code that built it would end in a MemoryError
    # instead of an OOM kill
    source = pathlib.Path(cubeloops.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(source)}
    limit = 512 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "cubeloops", "enumerate", *argv],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=cap_address_space,
        timeout=60,
    )


def test_enumerate_window_end_is_clamped_without_the_power_of_two():
    done = _enumerate_under_512_mb("--dim", "10000000000", "--max-length", "20")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 classes\n"


def test_enumerate_open_window_is_refused_without_the_power_of_two():
    start = time.perf_counter()
    done = _enumerate_under_512_mb("--dim", "10000000000")
    assert time.perf_counter() - start < 0.5
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "invalid request: a census window up to 2**10000000000 edges exceeds "
        "the walk's limit of 512; give a smaller --max-length\n"
    )


def test_enumerate_text_listing_matches_the_reports(capsys):
    # the listing reads each class's verdict and genus off its lattice; the
    # full report must agree, in both dimension parities
    for dim, max_length in ((4, 16), (5, 12), (6, 12)):
        argv = ["enumerate", "--dim", str(dim), "--max-length", str(max_length)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        query = EnumerationQuery.create(dim, max_length=max_length)
        expected = []
        for word in enumerate_paths(query):
            report = build_report(word)
            flags = "embedded" if report["embedded"] else "not embedded"
            genus = f"  genus={report['genus']}" if report["genus"] is not None else ""
            expected.append(f"m={report['m']:>3}  {word}  {flags}{genus}")
        assert lines == [*expected, f"{len(expected)} classes"], dim


def test_enumerate_rejects_fewer_than_one_job(capsys):
    assert main(["enumerate", "--dim", "3", "--jobs", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid request: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--dim", "4"],
        ["--dim", "4", "--limit", "0"],
        ["--dim", "6", "--embedded-only"],
        ["--dim", "3", "--mode", "verify"],
        ["--dim", "5", "--max-length", "9"],
        # odd dimension, with many classes that share a report shape
        ["--dim", "5", "--max-length", "12"],
        # labels above 9: words are space-separated
        ["--dim", "10", "--embedded-only", "--max-length", "20"],
        # oracle_checks are part of the shape
        ["--dim", "5", "--max-length", "12", "--mode", "verify"],
    ],
)
def test_enumerate_json_is_streamed_byte_for_byte(capsys, argv):
    # the listing is written one class at a time; it must equal the whole
    # document rendered at once
    args = _build_parser().parse_args(["enumerate", *argv])
    query = EnumerationQuery.create(
        dim=args.dim,
        max_length=args.max_length,
        embedded_only=args.embedded_only,
        limit=args.limit,
    )
    reports = [
        build_report(word, mode=args.mode) for word in enumerate_paths(query)
    ]
    document = {
        "schema": 1,
        "dim": args.dim,
        "query": {
            "min_length": query.min_length,
            "max_length": query.max_length,
            "embedded_only": query.embedded_only,
            "limit": query.limit,
        },
        "count": len(reports),
        "classes": reports,
    }
    assert main(["enumerate", *argv, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize(
    "dim, max_length, mode",
    [(4, None, "fast"), (5, 12, "fast"), (5, 12, "verify")],
)
def test_class_documents_match_the_plain_encoding(dim, max_length, mode):
    # each class is joined into its shape's template; it must read as the
    # report encoded on its own, indented for its place in the listing
    query = EnumerationQuery.create(dim, max_length=max_length)
    words = enumerate_paths(query)
    texts = [item for items in _listed_classes(words, mode) for item in items]
    assert texts == [
        json.dumps(build_report(word, mode=mode), indent=2).replace("\n", "\n    ")
        for word in words
    ]


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_enumerate_verify_stops_when_the_oracles_disagree(
    capsys, monkeypatch, json_flag
):
    # both listings run the oracles on every class; a geometric verdict
    # that contradicts the lattice is an internal invariant violation
    incidence = geometry.vertex_incidence

    def contradicted(patches):
        found = incidence(patches)
        return found._replace(embedded=not found.embedded)

    monkeypatch.setattr(geometry, "vertex_incidence", contradicted)
    argv = ["enumerate", "--dim", "4", "--mode", "verify", *json_flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no class is written before every check ran
    assert captured.err.startswith("internal invariant violated: geometric verdict")


def test_enumerate_verify_text_runs_the_oracles_without_reports(
    capsys, monkeypatch
):
    # the text listing reads each verdict off the lattice in both modes;
    # verify mode adds each class's oracle checks, but neither a report nor
    # its sign symmetries
    words = enumerate_paths(EnumerationQuery.create(4))
    expected = []
    for word in words:
        report = build_report(word)
        flags = "embedded" if report["embedded"] else "not embedded"
        genus = "" if report["genus"] is None else f"  genus={report['genus']}"
        expected.append(f"m={len(word):>3}  {word}  {flags}{genus}\n")
    calls = {"oracles": 0, "symmetries": 0, "reports": 0}

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        verdict, "_run_oracles", counting("oracles", verdict._run_oracles)
    )
    symmetries = counting("symmetries", verdict.path_symmetries)
    for module in (paths, verdict):
        monkeypatch.setattr(module, "path_symmetries", symmetries)
    monkeypatch.setattr(verdict, "_report", counting("reports", verdict._report))
    assert main(["enumerate", "--dim", "4", "--mode", "verify"]) == 0
    assert capsys.readouterr().out == "".join(expected) + "69 classes\n"
    assert calls == {"oracles": 69, "symmetries": 0, "reports": 0}


def test_class_documents_key_on_the_oracle_checks(monkeypatch):
    # the oracles agree with the lattice, so in a real listing the checks
    # follow from the other shape inputs; a check that varies on its own
    # must still split the shape
    run_oracles = verdict._run_oracles

    def marked(path, decision):
        checks, refusal = run_oracles(path, decision)
        return (*checks, ("marker", sum(path.word.labels[::2]) % 3)), refusal

    monkeypatch.setattr(verdict, "_run_oracles", marked)
    words = enumerate_paths(EnumerationQuery.create(4))
    texts = [item for items in _listed_classes(words, "verify") for item in items]
    documents = [build_report(word, mode="verify") for word in words]
    assert {document["oracle_checks"]["marker"] for document in documents} == {0, 1, 2}
    assert texts == [
        json.dumps(document, indent=2).replace("\n", "\n    ")
        for document in documents
    ]


@pytest.mark.parametrize(
    "argv, shapes",
    [(["--dim", "4"], 32), (["--dim", "5", "--max-length", "14"], 93)],
)
def test_enumerate_json_encodes_each_report_shape_once(
    capsys, monkeypatch, argv, shapes
):
    # one report per shape, built and encoded once: a class whose shape is
    # known joins its word and gap vectors into the shape's text
    built, encoded = [], []
    report, dumps = verdict._report, jsontext.dumps

    def counted_report(*args):
        built.append(args)
        return report(*args)

    def counted_dumps(value, indent):
        if isinstance(value, dict):
            encoded.append(value)
        return dumps(value, indent)

    monkeypatch.setattr(verdict, "_report", counted_report)
    monkeypatch.setattr(jsontext, "dumps", counted_dumps)
    assert main(["enumerate", *argv, "--json"]) == 0
    capsys.readouterr()
    assert (len(built), len(encoded)) == (shapes, shapes)
    # the text listing builds no report
    assert main(["enumerate", *argv]) == 0
    capsys.readouterr()
    assert (len(built), len(encoded)) == (shapes, shapes)


def test_family_text(capsys):
    assert main(["family", "--name", "d-series", "--dim", "5"]) == 0
    out = capsys.readouterr().out
    assert "1234512543" in out
    assert "embedded:   yes" in out


def test_family_json_carries_spec(capsys):
    code = main(["family", "--name", "gamma-b", "--dim", "4", "--alpha", "1", "--beta", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == {"name": "gamma-b", "dim": 4, "alpha": 1, "beta": 3}
    assert doc["word"] == "12341324"


def test_family_validates_its_word_once(capsys, monkeypatch):
    # the report validates the family word on the one reading of its walk
    # that it is built from; nothing walks it before that
    calls = 0
    read = paths._read_walk

    def counted(word):
        nonlocal calls
        calls += 1
        return read(word)

    for module in (paths, verdict):
        monkeypatch.setattr(module, "_read_walk", counted)
    assert main(["family", "--name", "sharp", "--dim", "6"]) == 0
    capsys.readouterr()
    assert calls == 1


def test_family_bad_parameters_exit_code(capsys):
    assert main(["family", "--name", "gamma-a", "--dim", "4", "--beta", "4"]) == 2
    assert capsys.readouterr().err.startswith("BadParameters:")
    # family_word alone checks the name, and lists every family
    assert main(["family", "--name", "spiral", "--dim", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "BadParameters: unknown family 'spiral'; choose one of gamma-a, "
        "gamma-b, gamma-c, d-series, sharp\n"
    )


def test_export_obj_to_file(tmp_path, capsys):
    target = tmp_path / "mesh.obj"
    code = main(["export", "--dim", "3", "--word", "123123", "-o", str(target)])
    assert code == 0
    out = capsys.readouterr().out
    assert "32 patches, 192 triangles, embedded" in out
    data = target.read_text()
    assert data.startswith("# periodic reflection surface mesh")
    assert data.count("\nf ") == 192


def test_export_obj_stdout_and_stderr_summary(capsys):
    assert main(["export", "--dim", "3", "--word", "121323"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# periodic reflection surface mesh")
    assert "patches" in captured.err


def test_export_json_stdout(capsys):
    assert main(["export", "--dim", "3", "--word", "123123", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 3
    assert len(doc["triangles"]) == 192


def test_export_stdout_bytes_equal_the_file_bytes(tmp_path, capsysbinary):
    # standard output gets the mesh bytes themselves, through its byte layer
    for fmt in ("json", "obj"):
        target = tmp_path / f"mesh.{fmt}"
        word = ["export", "--dim", "4", "--word", "12314234", "--format", fmt]
        assert main([*word, "-o", str(target)]) == 0
        capsysbinary.readouterr()
        assert main(word) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == target.read_bytes(), fmt
        assert b"patches" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--dim", "4", "--word", "12321434", "--json"],
        ["check", "--dim", "4", "--word", "12321434", "--mode", "verify", "--json"],
        ["export", "--dim", "4", "--word", "12321434", "--format", "json"],
        ["export", "--dim", "4", "--word", "12321434"],
        ["enumerate", "--dim", "4", "--json"],
        ["family", "--name", "sharp", "--dim", "6", "--json"],
    ],
)
def test_first_command_of_a_fresh_process_matches_in_process(argv, capsysbinary):
    # a fresh process imports each layer at its first use; the output must
    # be the one an interpreter with every module loaded gives
    done = subprocess.run(
        [sys.executable, "-m", "cubeloops", *argv],
        env=fresh_interpreter_env(),
        capture_output=True,
        timeout=60,
    )
    code = main(argv)
    assert (done.returncode, done.stdout) == (code, capsysbinary.readouterr().out)


def test_export_stdout_without_a_byte_layer(tmp_path, monkeypatch, capsys):
    # a text stream with no buffer, such as a StringIO, gets the decoded text
    target = tmp_path / "mesh.obj"
    assert main(["export", "--dim", "3", "--word", "123123", "-o", str(target)]) == 0
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["export", "--dim", "3", "--word", "123123"]) == 0
    assert stream.getvalue() == target.read_text()


def test_export_default_projection_dimension_four(capsys):
    assert main(["export", "--dim", "4", "--word", "12314234"]) == 0
    out = capsys.readouterr().out
    assert "# projection: dropped axes [4]" in out


def test_export_needs_projection_above_dimension_four(capsys):
    assert main(["export", "--dim", "5", "--word", "145231425232"]) == 2
    assert capsys.readouterr().err.startswith("BadProjection:")
    code = main(["export", "--dim", "5", "--word", "145231425232", "--project", "1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# projection: dropped axes [1, 2]" in out
    assert "# warning: surface has self-intersections" in out


def test_export_garbled_projection(capsys):
    code = main(["export", "--dim", "4", "--word", "12314234", "--project", "x"])
    assert code == 2
    assert "invalid request" in capsys.readouterr().err


def test_export_request_is_checked_before_any_patch(monkeypatch, capsys):
    # sharp n=11 has 8,192 patches within the budget, and sharp n=20 is
    # over it; a bad format or projection is named before either is placed
    def no_patches(*args):
        raise AssertionError("the patches were placed")

    monkeypatch.setattr(reflection, "close_under_composition", no_patches)
    monkeypatch.setattr(geometry, "expand_patches", no_patches)
    for dim in (11, 20):
        word = str(family_word(FamilySpec("sharp", dim))).split()
        export = ["export", "--dim", str(dim), "--word", *word]
        for options, message in (
            ((), "BadProjection: dropping axes () leaves"),
            (("--project", "1,2"), "BadProjection: dropping axes (1, 2) leaves"),
            (("--format", "json", "--project", "1"), "BadProjection: projection applies"),
            (("--project", "x"), "invalid request: --project expects axis numbers"),
        ):
            start = time.perf_counter()
            assert main([*export, *options]) == 2, (dim, options)
            assert time.perf_counter() - start < 1, (dim, options)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(message), (dim, options)


def test_export_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "mesh.obj"
    code = main(["export", "--dim", "3", "--word", "123123", "-o", str(target)])
    assert code == 3
    assert capsys.readouterr().err.startswith("i/o error:")


class _ClosedPipe(io.StringIO):
    """A stream whose reader has gone: every write and flush fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_closed_pipe_on_both_streams_exits_with_the_io_code(monkeypatch, json_flag):
    # the diagnostic cannot be written either; the exit code still says i/o
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    assert main(["enumerate", "--dim", "4", *json_flag]) == 3


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        # a short report waits in the buffer for the final flush
        ["check", "--dim", "3", "--word", "123123"],
        # a long listing meets the closed pipe while it writes
        ["enumerate", "--dim", "5", "--max-length", "12", "--json"],
    ],
)
def test_closed_pipe_exits_with_the_io_code(argv, unbuffered):
    # standard output and standard error share one pipe whose reader has
    # gone, as in `cubeloops ... 2>&1 | head -c 100`; a buffered stream
    # still holds its text when the interpreter exits
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cubeloops", *argv],
            stdout=write,
            stderr=write,
            env={**fresh_interpreter_env(), "PYTHONUNBUFFERED": unbuffered},
            timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 3


def test_oversized_closure_is_refused_before_any_work(monkeypatch, capsys):
    # sharp n=20: 2^20 * 4 patches of 77 vertices, about 6.5e9 coordinates
    def no_closure(generators):
        raise AssertionError("the closure started")

    monkeypatch.setattr(reflection, "close_under_composition", no_closure)
    word = [str(lab) for lab in family_word(FamilySpec("sharp", 20)).labels]
    # verify mode still reports, with every oracle check null and a note
    # that names the budget
    for argv in (
        ["check", "--dim", "20", "--word", *word, "--mode", "verify", "--json"],
        ["family", "--name", "sharp", "--dim", "20", "--mode", "verify", "--json"],
    ):
        start = time.perf_counter()
        assert main(argv) == 0, argv[0]
        assert time.perf_counter() - start < 1, argv[0]
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert set(doc["oracle_checks"].values()) == {None}, argv[0]
        coordinates = (1 << 22) * (len(word) + 1) * 20
        assert doc["notes"][-1] == (
            f"verify-mode oracles not run: {1 << 22} patches would place "
            f"{coordinates} coordinates, over the budget of {1 << 22}"
        ), argv[0]
    # export has nothing to report without the patches
    start = time.perf_counter()
    assert main(["export", "--dim", "20", "--word", *word, "--format", "json"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("BudgetExceeded:")
    # no option overrides the budget
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--dim", "20", "--word", *word, "--mode", "verify", "--force"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_readme_options_exist():
    # every --option the README shows belongs to some subcommand
    known = {
        option
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
        for option in sub._option_string_actions
    }
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    shown = {
        option
        for line in readme.read_text().splitlines()
        if "pip install" not in line
        for option in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)
    }
    assert shown
    assert shown <= known, sorted(shown - known)


def test_readme_names_the_exports():
    # the Library paragraph counts the exported names and lists the entry
    # points; the rest of __all__ is the error classes of cubeloops.errors
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    found = re.search(
        r"`import cubeloops` exports (\d+) names:(.*?)\n\n", readme.read_text(), re.S
    )
    assert found is not None
    assert int(found.group(1)) == len(cubeloops.__all__)
    listing = found.group(2).split("—", 1)[1].split(". ", 1)[0]
    exported = {name: getattr(cubeloops, name) for name in cubeloops.__all__}
    entry_points = {
        name
        for name, value in exported.items()
        if not (isinstance(value, type) and issubclass(value, Exception))
    }
    assert set(re.findall(r"`(\w+)`", listing)) == entry_points
    defined = {
        value.__name__
        for value in vars(errors).values()
        if isinstance(value, type)
        and issubclass(value, errors.CubeLoopsError)
        and value.__module__ == errors.__name__
    }
    assert defined <= exported.keys()


def test_readme_library_snippet_runs():
    # the documented library calls, run as the README shows them
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    snippet = re.search(r"## Library\n+```python\n(.*?)```", readme.read_text(), re.S)
    assert snippet is not None
    exec(compile(snippet.group(1), "README.md", "exec"), {})


def test_output_digest_invocations_parse():
    # the byte-identity list goes stale if an option it uses is dropped or
    # renamed; each argv must still parse (none is run here), except the
    # usage errors, which must still be refused
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = tool.invocations()
    assert runs
    # through the parse that main makes, so the list covers its fast path
    for argv in runs:
        if argv in tool.USAGE_ERRORS:
            with pytest.raises(SystemExit):
                _parse_args(argv)
        else:
            _parse_args(argv)


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_entry_point(monkeypatch, capsys):
    # python -m cubeloops runs the same command line as the console script
    argv = ["cubeloops", "enumerate", "--dim", "4", "--embedded-only"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("cubeloops", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.endswith("\n5 classes\n")


def test_parser_reuse_keeps_calls_independent(capsys):
    # main reuses one parser per process; no option may carry over between calls
    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def refused(argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    check_json = ["check", "--dim", "4", "--word", "12321434", "--json"]
    check_text = ["check", "--dim", "4", "--word", "12321434"]
    export_five = ["export", "--dim", "5", "--word", "145231425232", "--project", "4,5"]
    export_four = ["export", "--dim", "4", "--word", "12314234"]
    # enumerate and family share the dim, mode and json options
    census = ["enumerate", "--dim", "5", "--embedded-only", "--mode", "verify", "--json"]
    member = ["family", "--name", "sharp", "--dim", "6"]
    alone = {}
    for argv in (check_json, check_text, export_five, export_four, census, member):
        _build_parser.cache_clear()
        alone[tuple(argv)] = run(argv)
    bogus = ["check", "--dim", "4", "--word", "12321434", "--json", "--bogus"]
    _build_parser.cache_clear()
    refusal = refused(bogus)
    assert refusal.endswith("error: unrecognized arguments: --bogus\n")
    pairs = ((check_json, check_text), (export_five, export_four), (census, member))
    for first, second in pairs:
        _build_parser.cache_clear()
        assert run(first) == alone[tuple(first)]
        assert run(second) == alone[tuple(second)]
        # a refused call between two good ones leaves nothing behind
        assert run(first) == alone[tuple(first)]
        assert refused(bogus) == refusal
        assert run(second) == alone[tuple(second)]
    assert alone[tuple(check_text)][1] != alone[tuple(check_json)][1]
    assert "# projection: dropped axes [4]" in alone[tuple(export_four)][1]
    assert '"oracle_checks": {' in alone[tuple(census)][1]
    assert alone[tuple(member)][1].startswith("word:")


# argument lists for the parse that main makes, against the whole parser
_ABOVE_NINE = str(family_word(FamilySpec("d-series", 10))).split()
PARSE_CASES = [
    # read by the whole parser: no command, an unknown one, an option first
    [],
    ["frobnicate"],
    ["frobnicate", "--dim", "4"],
    ["chec", "--dim", "4", "--word", "12321434"],
    ["--json", "check", "--dim", "4", "--word", "12321434"],
    ["-h"],
    ["--help"],
    ["--he", "check"],
    # read by the command's own parser
    ["check", "--dim", "4", "--word", "12321434"],
    ["check", "--json", "--dim", "4", "--word", "12321434"],
    ["check", "--dim", "10", "--word", *_ABOVE_NINE, "--json"],
    ["check", "--dim=4", "--word=12321434", "--mode=verify"],
    ["check", "--di", "4", "--wo", "12321434", "--js"],
    ["check", "--mode", "verify", "--mode", "fast", "--dim", "4", "--word", "12"],
    ["check", "--dim", "4", "--word", "-1"],
    # values that argparse's own int takes, a lone "-" and an empty word
    ["check", "--dim", " 4", "--word", "12321434"],
    ["check", "--dim", "4_0", "--word", "12321434"],
    ["check", "--dim", "\u0664", "--word", "12321434"],
    ["check", "--dim", "4", "--word", "-"],
    ["check", "--dim", "4", "--word", ""],
    ["check", "--dim", "-4", "--word", "1"],
    ["check", "--dim", "4"],
    ["check", "--word"],
    ["check", "--dim", "x", "--word", "123123"],
    ["check", "--dim", "3", "--word", "123123", "--mode", "slow"],
    ["check", "--dim", "4", "--word", "12321434", "--bogus"],
    ["check", "--dim", "4", "--word", "12321434", "--bogus", "x", "--json"],
    ["check", "--dim", "4", "--word", "12321434", "--", "--json"],
    ["check", "check"],
    ["check", "-h"],
    ["check", "--dim", "4", "--word", "12321434", "--help"],
    ["check", "--he"],
    ["enumerate", "--dim", "4", "stray"],
    ["enumerate", "--dim", "5", "--max-length", "12", "--jobs", "2", "--embedded-only"],
    ["enumerate", "--dim", "4", "--limit", "x"],
    ["enumerate", "--length", "8"],
    ["family", "--name", "gamma-b", "--dim", "12", "--alpha", "2", "--beta", "7"],
    ["family", "--dim", "6"],
    ["family", "-h"],
    ["export", "--dim", "4", "--word", "12321434", "-o", "out.obj", "--format", "json"],
    ["export", "--dim", "4", "--word", "12321434", "--format", "png"],
    ["export", "--dim", "5", "--word", "145231425232", "--project"],
]


def _parse_outcome(parse, argv, capsys):
    """The namespace's fields, or the exit code, with both streams."""
    try:
        fields, code = vars(parse(argv)), None
    except SystemExit as exc:
        fields, code = None, exc.code
    captured = capsys.readouterr()
    return fields, code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parse_matches_the_whole_parser(argv, capsys):
    # the whole parser stays the reference: the same fields for what it
    # takes, the same exit code and words for what it refuses, the same
    # help page
    expected = _parse_outcome(_build_parser().parse_args, argv, capsys)
    assert _parse_outcome(_parse_args, argv, capsys) == expected
    fields, code, out, err = expected
    assert (fields is None) == (code is not None)
    assert bool(out) == (code == 0)
    assert bool(err) == (code == 2)


def test_benchmark_spellings_bypass_the_parse_loop(monkeypatch):
    # every op shape of perfbench/workloads.py is read from its command's
    # option table; argparse's parse loop runs for none of them
    def loop(*args, **kwargs):
        raise AssertionError("argparse parsed the command line")

    parser = _build_parser()
    commands = next(
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )

    def table(command):
        return (
            dict(command._option_string_actions),
            [(action, dict(vars(action))) for action in command._actions],
            dict(command._defaults),
        )

    before = {name: table(command) for name, command in commands.items()}
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", loop)
    above_nine = " ".join(_ABOVE_NINE)
    shapes = [
        ["check", "--json", "--dim", "4", "--word", "12321434"],
        ["check", "--json", "--dim", "5", "--word", "145231425232", "--mode", "verify"],
        ["check", "--json", "--dim", "10", "--word", above_nine],
        ["check", "--dim", "4", "--word", "12321434"],
        ["enumerate", "--json", "--jobs", "1", "--dim", "4"],
        ["enumerate", "--embedded-only", "--jobs", "1", "--dim", "5"]
        + ["--max-length", "14"],
        ["family", "--name", "gamma-b", "--dim", "12", "--alpha", "2", "--beta", "7"],
        ["export", "--dim", "4", "--word", "12321434", "--format", "json"],
        ["export", "--dim", "5", "--word", "145231425232", "--format", "obj"]
        + ["--project", "4,5"],
    ]
    for argv in shapes:
        assert _parse_args(argv).command == argv[0]
    assert _parse_args(shapes[2]).word == [above_nine]
    with pytest.raises(AssertionError, match="argparse parsed"):
        _parse_args(["check", "--dim=4", "--word=12321434"])
    assert {name: table(command) for name, command in commands.items()} == before


def test_parse_crosscheck_finds_no_difference(capsys):
    # tools/parse_crosscheck.py: seeded well-formed and mutated command
    # lines, the fast reader against the whole parser
    tools = pathlib.Path(__file__).resolve().parent.parent / "tools"
    spec = importlib.util.spec_from_file_location(
        "parse_crosscheck", tools / "parse_crosscheck.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0
    report = capsys.readouterr().out
    counts = re.findall(r"(\d+) (?:generated|read|differ)", report)
    generated, read, differ = map(int, counts)
    assert (generated, differ) == (4000, 0)
    assert read >= 0.4 * generated
