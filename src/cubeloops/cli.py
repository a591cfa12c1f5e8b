"""Command-line front end.

Four subcommands: ``check`` validates a word and reports everything known
about its surface; ``enumerate`` runs the census; ``family`` instantiates
a named family member; ``export`` writes the patch mesh as OBJ or JSON.
It parses arguments and prints: reports and both census listings come
from :mod:`cubeloops.verdict`.  The census and family layer, the geometry
and the JSON writer are imported where a command first uses them, so a
text ``check`` loads none of them.  ``family_word`` alone decides which
family names exist.

Exit codes: 0 success; 2 user or input error (invalid words, bad
parameters, impossible projections — the diagnostic names the failed
condition); 3 I/O failure, a reader that closed the output pipe among
them; 1 internal invariant violation, meaning the independent methods
disagreed — never expected, always a bug worth reporting.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import IO, Sequence

from .errors import CubeLoopsError, InternalInvariantError
from .paths import parse_word, validate
from .verdict import SurfaceReport, _listed_classes, _listed_lines, build_report

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
        code = args.handler(args)
        # a closed pipe fails here, not in the interpreter's final flush;
        # print skips a standard output closed at start-up (None)
        print(end="", flush=True)
        return code
    except InternalInvariantError as exc:
        return _fail(1, f"internal invariant violated: {exc}")
    except CubeLoopsError as exc:
        condition = type(exc).__name__.removesuffix("Error")
        return _fail(2, f"{condition}: {exc}")
    except ValueError as exc:
        return _fail(2, f"invalid request: {exc}")
    except OSError as exc:
        return _fail(3, f"i/o error: {exc}")
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def _fail(code: int, message: str) -> int:
    """Print the diagnostic to standard error and return the exit code.

    A reader that has gone, such as ``head`` at the far end of a pipe,
    fails every write to its stream, this message and the interpreter's
    final flush included; that flush would turn the exit code into 120.
    A stream that fails is pointed at the null device, so that the text
    it still holds is dropped and the exit code stands.
    """
    for stream, text in ((sys.stdout, ""), (sys.stderr, message + "\n")):
        if stream is None:  # closed when the interpreter started
            continue
        try:
            stream.write(text)
            stream.flush()
        except OSError:
            _discard(stream)
    return code


def _discard(stream: IO[str]) -> None:
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor, and so no final flush to fail
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


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
    if args.json:
        from .jsontext import stream

        document = {
            "schema": 1,
            "dim": args.dim,
            "query": {
                "min_length": query.min_length,
                "max_length": query.max_length,
                "embedded_only": query.embedded_only,
                "limit": query.limit,
            },
            "count": len(classes),
            "classes": _listed_classes(classes, args.mode),
        }
        sys.stdout.writelines(stream(document, 2))
        print()
        return 0
    for line in _listed_lines(classes, args.mode):
        print(line)
    plural = "es" if len(classes) != 1 else ""
    print(f"{len(classes)} class{plural}")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    from .enumeration import FamilySpec, family_word

    spec = FamilySpec(args.name, args.dim, alpha=args.alpha, beta=args.beta)
    word = family_word(spec)
    report = build_report(word, mode=args.mode, family=spec._asdict())
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
