"""Command-line front end.

Four subcommands: ``check`` validates a word and reports everything known
about its surface; ``enumerate`` runs the census; ``family`` instantiates
a named family member; ``export`` writes the patch mesh as OBJ or JSON.
The census and family layer, the geometry and the JSON writer are
imported where a command first uses them, so a text ``check`` loads none
of them.  ``family_word`` alone decides which family names exist.

Exit codes: 0 success; 2 user or input error (invalid words, bad
parameters, impossible projections — the diagnostic names the failed
condition); 3 I/O failure; 1 internal invariant violation, meaning the
independent methods disagreed — never expected, always a bug worth
reporting.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from dataclasses import fields
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Sequence

from .errors import CubeLoopsError, InternalInvariantError
from .paths import _census_path, parse_word, validate
from .verdict import SurfaceReport, _listing_reports, build_report, decide_embedded

if TYPE_CHECKING:
    from .jsontext import Encoded

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact reports pass Python's default limit of 4,300 digits for printing
    # an int near dimension 14,300; Pythons without the limit have no getter
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1
    except CubeLoopsError as exc:
        condition = type(exc).__name__.removesuffix("Error")
        print(f"{condition}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh Namespace on every
    # call and no action writes back into the parser.
    parser = argparse.ArgumentParser(
        prog="cubeloops",
        description=(
            "classify closed edge loops on the unit n-cube and the periodic "
            "surfaces they generate by reflection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="validate a word and report on its surface"
    )
    _add_word_args(check)
    _add_mode_args(check)
    check.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    check.set_defaults(handler=_cmd_check)

    enum = sub.add_parser("enumerate", help="census of loop classes")
    enum.add_argument("--dim", type=int, required=True, help="ambient dimension")
    enum.add_argument("--length", type=int, help="exact word length")
    enum.add_argument("--min-length", type=int, help="smallest length to search")
    enum.add_argument("--max-length", type=int, help="largest length to search")
    enum.add_argument(
        "--embedded-only",
        action="store_true",
        help="keep only classes whose surface is embedded",
    )
    enum.add_argument("--limit", type=int, help="report at most this many classes")
    enum.add_argument(
        "--jobs", type=int, default=1, help="workers, at most one per CPU (default 1)"
    )
    _add_mode_args(enum)
    enum.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    enum.set_defaults(handler=_cmd_enumerate)

    family = sub.add_parser("family", help="instantiate a named family member")
    family.add_argument("--name", required=True, help="family name")
    family.add_argument("--dim", type=int, required=True, help="ambient dimension")
    family.add_argument("--alpha", type=int, help="lower split parameter")
    family.add_argument("--beta", type=int, help="upper split parameter")
    _add_mode_args(family)
    family.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    family.set_defaults(handler=_cmd_family)

    export = sub.add_parser("export", help="write the surface patch mesh")
    _add_word_args(export)
    export.add_argument(
        "--format",
        choices=("obj", "json"),
        default="obj",
        help="mesh format (default obj)",
    )
    export.add_argument(
        "-o",
        "--output",
        help="output file (default: mesh to standard output)",
    )
    export.add_argument(
        "--project",
        help="axes to drop for OBJ output, comma-separated (for dimension 4 "
        "the default drops axis 4; higher dimensions need an explicit choice)",
    )
    export.set_defaults(handler=_cmd_export)
    return parser


def _add_word_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, required=True, help="ambient dimension")
    parser.add_argument(
        "--word",
        required=True,
        nargs="+",
        help="edge word; digits may run together when dim <= 9 "
        "(labels above 9 need separators)",
    )


def _add_mode_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=("fast", "verify"),
        default="fast",
        help="fast: lattice criterion only; verify: cross-check with group "
        "closure and exact geometry whenever the patches fit the coordinate "
        "budget (over it the oracle checks are null and a note says why)",
    )


def _parse_cli_word(args: argparse.Namespace):
    return parse_word(" ".join(args.word), args.dim)


def _cmd_check(args: argparse.Namespace) -> int:
    word = _parse_cli_word(args)
    return _print_report(args, build_report(word, mode=args.mode))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import EnumerationQuery, enumerate_paths

    query = EnumerationQuery.create(
        dim=args.dim,
        length=args.length,
        min_length=args.min_length,
        max_length=args.max_length,
        embedded_only=args.embedded_only,
        limit=args.limit,
    )
    classes = enumerate_paths(query, jobs=args.jobs)
    # the census has proved every class closed, simple and covering, so
    # its walks are read off without validate's checks
    walks = map(_census_path, classes)
    if args.json:
        from .jsontext import stream

        reports = _listing_reports(walks, args.mode)
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
            "classes": _class_documents(reports),
        }
        sys.stdout.writelines(stream(document, 2))
        print()
        return 0
    # the embedded verdict and genus from the lattice alone in fast mode;
    # verify mode builds the full report, whose oracles must agree with it
    if args.mode == "verify":
        verdicts = _listing_reports(walks, "verify")
    else:
        verdicts = [decide_embedded(walk) for walk in walks]
    for word, verdict in zip(classes, verdicts):
        flags = "embedded" if verdict.embedded else "not embedded"
        genus_text = f"  genus={verdict.genus}" if verdict.genus is not None else ""
        print(f"m={len(word):>3}  {word}  {flags}{genus_text}")
    plural = "es" if len(classes) != 1 else ""
    print(f"{len(classes)} class{plural}")
    return 0


# The report fields that change from class to class in a census listing;
# every other field is part of the report's shape, which many classes
# share.  The shape's dict fields are keyed by their items.
_PER_CLASS = ("word", "canonical", "gaps")
_DICTS = ("family", "oracle_checks")
_SHAPE = attrgetter(
    *(f.name for f in fields(SurfaceReport) if f.name not in _PER_CLASS + _DICTS)
)
# stands for each per-class value while a shape's text is encoded
_SLOT = "\0"
# a class sits two levels deep (document, classes); a gap vector four
_CLASS_NEWLINE = "\n" + " " * 4
_VECTOR_NEWLINE = "\n" + " " * 8


def _shape_key(report: SurfaceReport) -> tuple[Any, ...]:
    """The report's shape fields, with its dicts frozen as item tuples.

    A shape is keyed by these fields, not by their JSON text: ``True == 1``
    and both hash alike, but each field holds one type.
    """
    family, checks = report.family, report.oracle_checks
    return (
        _SHAPE(report),
        None if family is None else tuple(family.items()),
        None if checks is None else tuple(checks.items()),
    )


def _class_documents(reports: list[SurfaceReport]) -> Iterator[list[Encoded]]:
    """The listing's classes for :func:`stream`, one encoded report at a
    time, each report shape encoded once per listing.

    On a shape's first class its :meth:`SurfaceReport.to_json_dict` is
    encoded with slots for the word, the canonical word and each of the
    ``dim`` gap vectors (one per direction, all used), and the text is
    split at the slots.  Each class of that shape joins its own values
    into those parts; a gap vector's text is also encoded once.
    """
    from .jsontext import Encoded, dumps

    slot = dumps(_SLOT, 2)
    templates: dict[tuple[Any, ...], tuple[list[str], str]] = {}
    vectors: dict[tuple[int, ...], str] = {}

    def vector_text(vector: tuple[int, ...]) -> str:
        text = vectors.get(vector)
        if text is None:
            text = vectors[vector] = dumps(vector, 2).replace("\n", _VECTOR_NEWLINE)
        return text

    for report in reports:
        key = _shape_key(report)
        template = templates.get(key)
        if template is None:
            document = report.to_json_dict()
            document["word"] = document["canonical"] = _SLOT
            document["gap_invariant"] = [_SLOT] * report.dim
            text = dumps(document, 2).replace("\n", _CLASS_NEWLINE)
            *parts, tail = text.split(slot)
            template = templates[key] = parts, tail
        word = dumps(str(report.word), 2)
        canonical = (
            word  # a census class is its own canonical word
            if report.canonical is report.word
            else dumps(str(report.canonical), 2)
        )
        parts, tail = template
        values = (word, canonical, *map(vector_text, report.gaps))
        text = "".join(chain.from_iterable(zip(parts, values, strict=True)))
        yield [Encoded(text + tail)]


def _cmd_family(args: argparse.Namespace) -> int:
    from .enumeration import FamilySpec, family_word

    spec = FamilySpec(args.name, args.dim, alpha=args.alpha, beta=args.beta)
    word = family_word(spec)
    report = build_report(word, mode=args.mode, family=spec.to_json_dict())
    return _print_report(args, report)


def _print_report(args: argparse.Namespace, report: SurfaceReport) -> int:
    if args.json:
        from .jsontext import dumps

        print(dumps(report.to_json_dict(), 2))
    else:
        print(report.render_text())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .geometry import expand_patches, export_mesh, vertex_incidence

    word = _parse_cli_word(args)
    path = validate(word)
    patches = expand_patches(path)
    projection = _parse_projection(args)
    incidence = vertex_incidence(patches)
    data = export_mesh(
        patches, format=args.format, projection=projection, incidence=incidence
    )
    summary = (
        f"{patches.count} patches, {patches.triangle_count} triangles, "
        f"{'embedded' if incidence.embedded else 'NOT embedded'}"
    )
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"wrote {args.output}: {summary}")
    else:
        # the bytes as they are, without a decoded copy, when the stream
        # has a byte layer (a StringIO, for one, has none)
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(data.decode())
        else:
            sys.stdout.flush()
            buffer.write(data)
        print(summary, file=sys.stderr)
    return 0


def _parse_projection(args: argparse.Namespace) -> tuple[int, ...] | None:
    if args.project is not None:
        try:
            axes = tuple(
                int(part) for part in args.project.replace(",", " ").split()
            )
        except ValueError:
            raise ValueError(
                f"--project expects axis numbers, not {args.project!r}"
            ) from None
        return axes
    if args.format == "obj" and args.dim == 4:
        return (4,)
    return None
