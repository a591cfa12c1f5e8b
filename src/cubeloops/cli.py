"""Command-line front end.

Four subcommands: ``check`` validates a word and reports everything known
about its surface; ``enumerate`` runs the census; ``family`` instantiates
a named family member; ``export`` writes the patch mesh as OBJ or JSON.

Exit codes: 0 success; 2 user or input error (invalid words, bad
parameters, impossible projections — the diagnostic names the failed
condition); 3 I/O failure; 1 internal invariant violation, meaning the
independent methods disagreed — never expected, always a bug worth
reporting.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Any, Sequence

from .enumeration import (
    FAMILY_NAMES,
    EnumerationQuery,
    FamilySpec,
    enumerate_paths,
    family_word,
)
from .errors import CubeLoopsError, InternalInvariantError
from .geometry import expand_patches, export_mesh, vertex_incidence
from .jsontext import dumps
from .paths import format_word, parse_word, validate
from .verdict import SurfaceReport, build_report

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1
    except CubeLoopsError as exc:
        print(f"{_condition_label(exc)}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _condition_label(exc: CubeLoopsError) -> str:
    label = getattr(exc, "condition", None)
    if label:
        return label
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


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
    family.add_argument(
        "--name", required=True, choices=FAMILY_NAMES, help="family name"
    )
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
        "closure and exact geometry (bounded by dimension unless --force)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="run verify-mode oracles even above their default dimension caps",
    )


def _parse_cli_word(args: argparse.Namespace):
    return parse_word(" ".join(args.word), args.dim)


def _cmd_check(args: argparse.Namespace) -> int:
    word = _parse_cli_word(args)
    return _print_report(args, build_report(word, mode=args.mode, force=args.force))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    query = EnumerationQuery.create(
        dim=args.dim,
        length=args.length,
        min_length=args.min_length,
        max_length=args.max_length,
        embedded_only=args.embedded_only,
        limit=args.limit,
    )
    classes = enumerate_paths(query, jobs=args.jobs)
    reports = [
        build_report(word, mode=args.mode, force=args.force) for word in classes
    ]
    if args.json:
        document: dict[str, Any] = {
            "schema": 1,
            "dim": args.dim,
            "query": {
                "min_length": query.min_length,
                "max_length": query.max_length,
                "embedded_only": query.embedded_only,
                "limit": query.limit,
            },
            "count": len(reports),
            "classes": [],
        }
        # the bytes of json.dumps(document, indent=2) with the classes in
        # place, written one class at a time: "classes" is the last key,
        # and a class nests two levels deep
        text = dumps(document, 2)
        if not reports:
            print(text)
            return 0
        out = sys.stdout
        out.write(text[: -len("[]\n}")] + "[\n")
        separator = "    "
        for report in reports:
            out.write(separator + dumps(report.to_json_dict(), 2, level=2))
            separator = ",\n    "
        out.write("\n  ]\n}\n")
        return 0
    for report in reports:
        flags = "embedded" if report.embedded else "not embedded"
        genus = f"  genus={report.genus}" if report.genus is not None else ""
        word = (
            report.canonical.compact()
            if args.dim <= 9
            else format_word(report.canonical.labels)
        )
        print(f"m={report.length:>3}  {word}  {flags}{genus}")
    plural = "es" if len(reports) != 1 else ""
    print(f"{len(reports)} class{plural}")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    spec = FamilySpec(args.name, args.dim, alpha=args.alpha, beta=args.beta)
    word = family_word(spec)
    report = build_report(
        word, mode=args.mode, force=args.force, family=spec.to_json_dict()
    )
    return _print_report(args, report)


def _print_report(args: argparse.Namespace, report: SurfaceReport) -> int:
    if args.json:
        print(dumps(report.to_json_dict(), 2))
    else:
        print(report.render_text())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
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
        sys.stdout.write(data.decode())
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
