"""Digest the command line's output over a fixed list of invocations.

Each invocation runs in-process through ``cubeloops.cli.main``; one line
``sha256  argv`` per invocation is printed, the hash taken over standard
output, standard error and the exit code.  Run it on two checkouts and
compare the files to show that a change keeps every output byte-identical:

    PYTHONPATH=<checkout>/src python tools/output_digests.py > digests.txt

Standard library only; nothing from ``perfbench/`` is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from cubeloops.cli import main

# the twelve words of tests/golden, as (dimension, word)
GOLDENS = (
    (3, "121323"),
    (3, "123123"),
    (3, "12321232"),
    (4, "1231413214"),
    (4, "12314234"),
    (4, "12314243"),
    (4, "12314324"),
    (4, "12314342"),
    (4, "123214123214"),
    (4, "12321434"),
    (4, "12341234"),
    (5, "145231425232"),
)

# census windows run in both listings and with one and two workers
CENSUS_WINDOWS = (
    ("--dim", "3"),
    ("--dim", "4"),
    ("--dim", "5", "--max-length", "14"),
    ("--dim", "6", "--max-length", "12"),
)


# argument lists the parser refuses: a check without --word
USAGE_ERRORS = (["check", "--dim", "4"],)


def invocations() -> list[list[str]]:
    runs: list[list[str]] = []
    for dim, word in GOLDENS:
        for mode in ("fast", "verify"):
            check = ["check", "--dim", str(dim), "--word", word, "--mode", mode]
            runs += [check, [*check, "--json"]]
    # a non-embedded loop whose closure has 512 elements
    check = ["check", "--dim", "5", "--word", "13423435241232124215", "--mode", "verify"]
    runs += [check, [*check, "--json"]]
    for window in CENSUS_WINDOWS:
        for listing in ((), ("--json",)):
            for jobs in ("1", "2"):
                runs.append(["enumerate", *window, *listing, "--jobs", jobs])
    # 10,093 classes, about 1 s: the only window with 8-entry gap vectors
    runs.append(["enumerate", "--dim", "5", "--max-length", "16", "--json", "--jobs", "1"])
    # 1,542 classes whose pair ranks all fall below 7, so that the
    # direction-product row decides every orientability
    runs.append(["enumerate", "--dim", "7", "--max-length", "14", "--json", "--jobs", "1"])
    verify = ["enumerate", "--dim", "5", "--max-length", "12", "--mode", "verify"]
    runs += [verify, [*verify, "--json"]]
    # oracle checks in the listing's shape key; a count under a limit
    runs.append(["enumerate", "--dim", "4", "--json", "--mode", "verify", "--jobs", "1"])
    # three of four classes over the patch budget: the refusal note in the
    # JSON listing, and none in the text listing
    refused = ["enumerate", "--dim", "8", "--length", "16", "--mode", "verify", "--limit", "4"]
    runs += [refused, [*refused, "--json"]]
    limited = ["enumerate", "--dim", "5", "--max-length", "14", "--json", "--limit", "100"]
    runs.append([*limited, "--jobs", "1"])
    for dim in range(3, 11):
        runs.append(["enumerate", "--dim", str(dim), "--embedded-only"])
    runs.append(
        ["enumerate", "--dim", "10", "--max-length", "24", "--embedded-only", "--json"]
    )
    for member in (
        ["--name", "sharp", "--dim", "6"],
        ["--name", "d-series", "--dim", "11"],
        ["--name", "gamma-b", "--dim", "12", "--alpha", "2", "--beta", "7"],
    ):
        family = ["family", *member]
        runs += [family, [*family, "--json"], [*family, "--mode", "verify", "--json"]]
    # gamma-a takes no alpha, which its family dict still names
    gamma_a = ["family", "--name", "gamma-a", "--dim", "5", "--beta", "2"]
    runs += [gamma_a, [*gamma_a, "--json"]]
    # a high-dimension member, about 2 s: its report walks 58,000 edges
    member = ["--name", "gamma-c", "--dim", "15000", "--alpha", "2", "--beta", "14000"]
    runs.append(["family", *member, "--json"])
    runs += [
        ["export", "--dim", "3", "--word", "123123"],
        ["export", "--dim", "4", "--word", "12321434"],
        ["export", "--dim", "5", "--word", "145231425232", "--project", "1,2"],
        ["export", "--dim", "4", "--word", "12321434", "--format", "json"],
    ]
    # the error paths: bad label, odd length, not closed, missing direction,
    # not embedded, dimension below 2, bad projection, refused census
    # windows (the last one by enumerate_paths, past the query's checks),
    # unknown family, then the usage errors
    runs += [
        ["check", "--dim", "3", "--word", "129123"],
        ["check", "--dim", "3", "--word", "12312"],
        ["check", "--dim", "3", "--word", "32123121"],
        ["check", "--dim", "4", "--word", "123123"],
        ["check", "--dim", "3", "--word", "112233"],
        ["check", "--dim", "1", "--word", "11"],
        ["export", "--dim", "5", "--word", "145231425232"],
        ["enumerate", "--dim", "10"],
        ["enumerate", "--dim", "10", "--length", "600"],
        ["enumerate", "--dim", "10", "--max-length", "600"],
        ["family", "--name", "spiral", "--dim", "4"],
        *USAGE_ERRORS,
    ]
    return runs


def digest(argv: list[str]) -> str:
    """sha256 over the run's standard output, standard error and exit code.
    Standard output has a byte layer, as a terminal's does, so ``export``
    writes its mesh bytes as they are."""
    out = io.BytesIO()
    err = io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout.flush()
    h = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue().encode(), str(code).encode()):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def run() -> int:
    for argv in invocations():
        print(f"{digest(argv)}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
