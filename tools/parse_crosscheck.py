"""Cross-check the command line's parse against the whole argparse parser.

``cubeloops.cli._parse_args`` reads a well-formed command line straight
from the command's own option table (``cli._read_exact``) and hands every
other one to ``_build_parser().parse_args``.  This tool generates seeded
argument lists and compares the two: the namespace's fields for what both
accept, and the exit code, standard output and standard error for the
rest (refusals and help pages).

Each argument list is a valid command line for one of the four commands,
its options in random order, with 0-2 mutations: an abbreviated option,
``--opt=value``, ``--``, ``-h``, an odd value (``-``, ``-1``, ``''``,
``' 4'``, ``'4_0'``, ``'٤'``), a repeated option, a dropped required
option or a stray token.  It prints the count generated, the count the
reader took and the count of differences, and exits 1 on any difference:

    PYTHONPATH=<checkout>/src python tools/parse_crosscheck.py [--count N] [--seed S]

The reader relies on argparse's internal tables, so run it under every
Python the package supports.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys

from cubeloops import cli

# (option, values it may take, required) for each command; a value of None
# marks a flag, and a tuple value is a --word given as separate labels
_WORDS = ("12321434", "123123", ("1", "2", "3", "1", "2", "3"), ("12", "21"))
_MODE = ("--mode", ("fast", "verify"), False)
_JSON = ("--json", None, False)
COMMANDS = {
    "check": (
        ("--dim", ("3", "4", "10"), True),
        ("--word", _WORDS, True),
        _MODE,
        _JSON,
    ),
    "enumerate": (
        ("--dim", ("3", "4", "5"), True),
        ("--length", ("6", "8"), False),
        ("--min-length", ("4", "6"), False),
        ("--max-length", ("8", "12"), False),
        ("--embedded-only", None, False),
        ("--limit", ("0", "3"), False),
        ("--jobs", ("1", "2"), False),
        _MODE,
        _JSON,
    ),
    "family": (
        ("--name", ("sharp", "gamma-b", "spiral"), True),
        ("--dim", ("4", "6"), True),
        ("--alpha", ("1", "2"), False),
        ("--beta", ("3", "4"), False),
        _MODE,
        _JSON,
    ),
    "export": (
        ("--dim", ("4", "5"), True),
        ("--word", _WORDS, True),
        ("--format", ("obj", "json"), False),
        ("-o", ("mesh.obj", "out"), False),
        ("--project", ("1,2", "4"), False),
    ),
}
ODD_VALUES = ("-", "-1", "", " 4", "4_0", "٤")
STRAYS = ("stray", "check", "4", "-x", "--bogus")


def _valid(rng: random.Random, command: str) -> list[list[str]]:
    """A valid command line as option groups (an option and its values)."""
    groups = []
    for option, values, required in COMMANDS[command]:
        if not required and rng.random() < 0.5:
            continue
        value = None if values is None else rng.choice(values)
        if value is None:
            groups.append([option])
        else:
            groups.append([option, *((value,) if isinstance(value, str) else value)])
    rng.shuffle(groups)
    return groups


def _mutate(rng: random.Random, command: str, groups: list[list[str]]) -> None:
    kind = rng.randrange(8)
    spot = rng.randrange(len(groups) + 1)
    valued = [g for g in groups if len(g) > 1]
    if kind == 0:  # an abbreviation
        group = rng.choice(groups)
        if group[0].startswith("--") and len(group[0]) > 3:
            group[0] = group[0][: rng.randrange(3, len(group[0]))]
    elif kind == 1 and valued:  # --opt=value
        group = rng.choice(valued)
        group[:2] = [f"{group[0]}={group[1]}"]
    elif kind == 2:
        groups.insert(spot, ["--"])
    elif kind == 3:
        groups.insert(spot, [rng.choice(("-h", "--help"))])
    elif kind == 4 and valued:  # an odd value
        group = rng.choice(valued)
        group[rng.randrange(1, len(group))] = rng.choice(ODD_VALUES)
    elif kind == 5:  # a repeated option, with a value of its own
        groups.insert(spot, _valid(rng, command)[0] if groups else ["--json"])
    elif kind == 6:  # a dropped required option
        required = {option for option, _, needed in COMMANDS[command] if needed}
        kept = [g for g in groups if g[0] not in required]
        if len(kept) < len(groups):
            groups.remove(rng.choice([g for g in groups if g not in kept]))
    else:
        groups.insert(spot, [rng.choice(STRAYS)])


def generate(count: int, seed: int) -> list[list[str]]:
    """``count`` seeded argument lists, each starting with a command name."""
    rng = random.Random(seed)
    runs = []
    for _ in range(count):
        command = rng.choice(tuple(COMMANDS))
        groups = _valid(rng, command)
        for _ in range(rng.randrange(3)):
            _mutate(rng, command, groups)
        runs.append([command, *(token for group in groups for token in group)])
    return runs


def outcome(parse, argv: list[str]) -> tuple:
    """The namespace's fields, or the exit code, with both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, code = vars(parse(argv)), None
        except SystemExit as exc:
            fields, code = None, exc.code
    return fields, code, out.getvalue(), err.getvalue()


def crosscheck(count: int, seed: int) -> tuple[int, int, list[list[str]]]:
    """(argument lists generated, lists the reader took, lists that differ)."""
    parser = cli._build_parser()
    commands = next(
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    read, differ = 0, []
    runs = generate(count, seed)
    for argv in runs:
        read += cli._read_exact(commands[argv[0]], argv[1:]) is not None
        if outcome(cli._parse_args, argv) != outcome(parser.parse_args, argv):
            differ.append(argv)
    return len(runs), read, differ


def main(argv: list[str] | None = None) -> int:
    options = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    options.add_argument("--count", type=int, default=4000)
    options.add_argument("--seed", type=int, default=1)
    args = options.parse_args(argv)
    generated, read, differ = crosscheck(args.count, args.seed)
    version = ".".join(map(str, sys.version_info[:3]))
    print(
        f"python {version}: {generated} generated, {read} read by the reader, "
        f"{len(differ)} differ"
    )
    for run in differ[:10]:
        print(f"  differs: {run!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
