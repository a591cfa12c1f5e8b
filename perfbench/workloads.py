"""The two benchmark workloads: their seeded inputs and output checks.

Each workload is a fixed list of CLI invocations (a *pass*), generated from
the seed before any timing starts.  Every op carries a check that reads the
captured standard output and returns a problem description, or ``None``
when the output is correct.  ``check-stream`` also carries untimed oracle
ops that re-run a sample of its fast checks in verify mode.

Why these two (see README.md for the metric map):

- ``census``: the full census of n=4 and of n=5 at m<=14, and the
  embedded-only census of n=5 and n=7 at m<=14.  Search, canonical
  dedupe, the after-the-fact embedded filter and one fast report per
  class do the work; nothing touches the group closure or the geometry.
- ``check-stream``: ~1,000 fast ``check --json`` calls, ~160 verify-mode
  checks and 24 mesh exports; no enumeration runs.  Fast checks spend
  their time in ``path_symmetries``, the lattice walks and CLI rendering;
  verify checks and exports in the group closure and the exact geometry.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from cubeloops.enumeration import FamilySpec, family_word

DATA = Path(__file__).resolve().parent / "data"

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI invocation, its output check and the classes it reports."""

    argv: tuple[str, ...]
    check: Check
    classes: int


@dataclass
class Workload:
    """A pass of timed ops, and untimed oracle ops run once after timing."""

    ops: list[Op]
    oracle_ops: list[Op] = field(default_factory=list)


def build(name: str, seed: int, golden_dir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    by_name = {"census": _census, "check-stream": _check_stream}
    return by_name[name](rng, golden_dir)


WORKLOADS = ("census", "check-stream")


# ---------------------------------------------------------------------------
# seeded words


def random_loop(rng: random.Random, n: int, m: int) -> tuple[int, ...]:
    """A closed, simple, all-direction walk of exactly m edges on the n-cube.

    Randomized depth-first search from vertex 0 with the exact home-distance
    prune; restarts after a bounded number of nodes so that no seed can stall.
    """
    full = (1 << n) - 1
    while True:
        word: list[int] = []
        budget = [4000]

        def extend(vertex: int, visited: int, used: int) -> bool:
            budget[0] -= 1
            left = m - len(word)
            if budget[0] < 0 or vertex.bit_count() + 2 * (n - used.bit_count()) > left:
                return False
            for d in rng.sample(range(1, n + 1), n):
                target = vertex ^ (1 << (d - 1))
                if target == 0:
                    if left == 1 and used | (1 << (d - 1)) == full:
                        word.append(d)
                        return True
                    continue
                if (visited >> target) & 1:
                    continue
                word.append(d)
                if extend(target, visited | (1 << target), used | (1 << (d - 1))):
                    return True
                word.pop()
            return False

        if extend(0, 1, 0):
            return tuple(word)


def transform(rng: random.Random, labels: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The same loop class under a seeded rotation, reversal and relabeling."""
    r = rng.randrange(len(labels))
    word = labels[r:] + labels[:r]
    if rng.random() < 0.5:
        word = word[::-1]
    relabel = rng.sample(range(1, n + 1), n)
    return tuple(relabel[lab - 1] for lab in word)


def word_text(labels: tuple[int, ...], n: int) -> str:
    """The word as the CLI takes it and the report prints it."""
    return ("" if n <= 9 else " ").join(str(lab) for lab in labels)


def _golden(golden_dir: Path) -> list[tuple[int, str, dict]]:
    """(dim, word, report) for every ``n<dim>_<word>.json`` golden file."""
    out = []
    for path in sorted(golden_dir.glob("n*_*.json")):
        dim, word = path.stem[1:].split("_")
        out.append((int(dim), word, json.loads(path.read_text())))
    if not out:
        raise FileNotFoundError(f"no golden reports in {golden_dir}")
    return out


# ---------------------------------------------------------------------------
# checks


def _report_check(
    n: int, labels: tuple[int, ...], extra: Callable[[dict], "str | None"] | None = None
) -> Check:
    """Fields any correct ``check --json`` report of the word must satisfy."""
    embedded_order = 4 if n % 2 == 0 else 8
    word = word_text(labels, n)

    def check(out: str) -> str | None:
        doc = json.loads(out)
        if (doc["dim"], doc["word"], doc["m"]) != (n, word, len(labels)):
            return f"report names {doc['dim']}/{doc['word']}, expected {n}/{word}"
        if doc["embedded"] != (doc["lattice_order"] == embedded_order):
            return f"{word}: embedded flag disagrees with lattice order"
        if (doc["euler_char"] is None) == doc["embedded"]:
            return f"{word}: Euler characteristic must be given exactly when embedded"
        return extra(doc) if extra else None

    return check


def _oracles_agree(doc: dict) -> str | None:
    checks = doc["oracle_checks"] or {}
    bad = [
        k
        for k in ("closure_agrees", "filled_cube_counts_equal", "geometric_agrees")
        if checks.get(k) is False
    ]
    if checks.get("closure_agrees") is not True:
        bad.append("closure oracle did not run")
    return f"{doc['word']}: oracle checks failed {bad}" if bad else None


def _check_argv(n: int, labels: tuple[int, ...], mode: str = "fast") -> tuple[str, ...]:
    argv = ("check", "--json", "--dim", str(n), "--word", word_text(labels, n))
    return argv + ("--mode", "verify") if mode == "verify" else argv


# ---------------------------------------------------------------------------
# census workloads


def _pins() -> dict:
    return json.loads((DATA / "census_pins.json").read_text())


def _census_json_check(pin: dict) -> Check:
    def check(out: str) -> str | None:
        doc = json.loads(out)
        words = [c["canonical"] for c in doc["classes"]]
        embedded = [c["canonical"] for c in doc["classes"] if c["embedded"]]
        digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
        if doc["count"] != pin["classes"] or len(words) != pin["classes"]:
            return f"census gave {doc['count']} classes, expected {pin['classes']}"
        if embedded != pin["embedded_words"]:
            return f"census embedded classes {embedded} != {pin['embedded_words']}"
        if digest != pin["class_digest"]:
            return "census class list differs from the pinned list"
        return None

    return check


def _census_text_check(pin: dict) -> Check:
    def check(out: str) -> str | None:
        lines = out.strip().splitlines()
        expected_tail = f"{pin['embedded']} class{'es' if pin['embedded'] != 1 else ''}"
        if lines[-1] != expected_tail:
            return f"embedded census ended with {lines[-1]!r}, expected {expected_tail!r}"
        rows = [line.split() for line in lines[:-1]]
        words = [row[2] for row in rows]
        if words != pin["embedded_words"] or any(row[3] != "embedded" for row in rows):
            return f"embedded census listed {words}, expected {pin['embedded_words']}"
        return None

    return check


def _census(rng: random.Random, golden_dir: Path) -> Workload:
    pins = _pins()
    full = [(("--dim", "4"), pins["n4"]), (("--dim", "5", "--max-length", "14"), pins["n5_m14"])]
    embedded = [
        (("--dim", "5", "--max-length", "14"), pins["n5_m14"]),
        (("--dim", "7", "--max-length", "14"), pins["n7_m14"]),
    ]
    ops = [
        Op(("enumerate", "--json", "--jobs", "1") + q, _census_json_check(pin), pin["classes"])
        for q, pin in full
    ] + [
        Op(("enumerate", "--embedded-only", "--jobs", "1") + q, _census_text_check(pin), pin["embedded"])
        for q, pin in embedded
    ]
    rng.shuffle(ops)
    return Workload(ops)


# ---------------------------------------------------------------------------
# check-stream

STREAM_DIMS = (5, 6, 7, 8)
STREAM_PER_LENGTH = 31  # loops per (dim, length) stratum: ~1,000 ops a pass
STREAM_ORACLE_PER_LENGTH = 2  # verify-mode cross-checks per stratum, dim <= 6
FAMILY_MAX_DIM = 13
ORACLE_MAX_DIM = 6


def _family_specs(rng: random.Random) -> list[FamilySpec]:
    """One seeded member of each family per dimension up to FAMILY_MAX_DIM.

    gamma-c keeps beta - alpha = 2, so its length (2n + 4) and cost do not
    depend on the seed.
    """
    specs = []
    for n in range(3, FAMILY_MAX_DIM + 1):
        alpha, beta = sorted(rng.sample(range(1, n), 2))
        specs.append(FamilySpec("gamma-a", n, beta=rng.randrange(1, n)))
        specs.append(FamilySpec("gamma-b", n, alpha, beta))
        specs.append(FamilySpec("d-series", n))
        if n >= 4:
            low = rng.randrange(1, n - 2)
            specs.append(FamilySpec("gamma-c", n, low, low + 2))
            specs.append(FamilySpec("sharp", n))
    return specs


def _family_extra(doc: dict) -> str | None:
    if not (doc["embedded"] and doc["orientable_sigma"]):
        return f"{doc['word']}: family member not embedded and orientable"
    return None


def _check_stream(rng: random.Random, golden_dir: Path) -> Workload:
    fast_docs: dict[tuple[int, ...], dict] = {}
    ops: list[Op] = []
    oracle_words: list[tuple[int, tuple[int, ...]]] = []

    def add(n: int, labels: tuple[int, ...], check: Check, cross_check: bool) -> None:
        """Stream a word; keep its fast report when an oracle re-checks it."""
        if cross_check:
            oracle_words.append((n, labels))

            def recorded(out: str) -> str | None:
                fast_docs[labels] = json.loads(out)
                return check(out)

            ops.append(Op(_check_argv(n, labels), recorded, 1))
        else:
            ops.append(Op(_check_argv(n, labels), check, 1))

    for n, word, golden in _golden(golden_dir):
        labels = tuple(int(c) for c in word)
        add(n, labels, lambda out, g=golden: None if json.loads(out) == g else "differs from golden report", True)
    for spec in _family_specs(rng):
        labels = family_word(spec).labels
        add(spec.dim, labels, _report_check(spec.dim, labels, _family_extra), spec.dim <= ORACLE_MAX_DIM)
    for n in STREAM_DIMS:
        for m in range(2 * n, 4 * n + 1, 2):
            for k in range(STREAM_PER_LENGTH):
                labels = random_loop(rng, n, m)
                cross_check = n <= ORACLE_MAX_DIM and k < STREAM_ORACLE_PER_LENGTH
                add(n, labels, _report_check(n, labels), cross_check)

    def verify_op(n: int, labels: tuple[int, ...]) -> Op:
        """Verify-mode run of a stream word; must repeat its fast report."""

        def extra(doc: dict) -> str | None:
            fast = dict(fast_docs.get(labels, {}), oracle_checks=doc["oracle_checks"])
            if fast != doc:
                return f"{doc['word']}: fast report differs from the verify report"
            return _oracles_agree(doc)

        return Op(_check_argv(n, labels, "verify"), _report_check(n, labels, extra), 1)

    ops += _verify_export_ops(rng, golden_dir)
    rng.shuffle(ops)
    return Workload(ops, [verify_op(n, labels) for n, labels in oracle_words])


# ---------------------------------------------------------------------------
# verify-mode checks and exports (part of check-stream)

VERIFY_N5_LENGTHS = range(10, 21, 2)
VERIFY_N5_PER_LENGTH = 15


def _n4_census() -> list[dict]:
    """The pinned n=4 classes with their class invariants."""
    rows = []
    for line in (DATA / "n4_census.tsv").read_text().splitlines():
        if line.startswith("#"):
            continue
        word, embedded, lattice, order, chi, genus = line.split("\t")
        rows.append(
            {
                "canonical": word,
                "embedded": embedded == "1",
                "lattice_order": int(lattice),
                "s_q_order": int(order),
                "euler_char": None if chi == "-" else int(chi),
                "genus": None if genus == "-" else int(genus),
            }
        )
    return rows


def _export_check(fmt: str, n: int, m: int, reference: dict) -> Check:
    """Patch and triangle counts and the warning must match the reference."""
    patches = reference["s_q_order"]
    want = (n, patches, patches * m, reference["embedded"])

    def check(out: str) -> str | None:
        if fmt == "json":
            doc = json.loads(out)
            triangles = len(doc["triangles"])
            got = (doc["dim"], len(set(doc["patch_of_triangle"])), triangles, "warning" not in doc)
        else:
            lines = out.splitlines()
            got = (
                n,
                sum(1 for line in lines if line.startswith("g patch_")),
                sum(1 for line in lines if line.startswith("f ")),
                not any(line.startswith("# warning") for line in lines),
            )
        return None if got == want else f"{fmt} export gave {got}, expected {want}"

    return check


def _verify_export_ops(rng: random.Random, golden_dir: Path) -> list[Op]:
    ops: list[Op] = []
    for row in _n4_census():
        labels = transform(rng, tuple(int(c) for c in row["canonical"]), 4)

        def extra(doc: dict, row=row) -> str | None:
            wrong = [k for k in row if doc[k] != row[k]]
            return _oracles_agree(doc) or (f"{doc['word']}: {wrong} differ" if wrong else None)

        ops.append(Op(_check_argv(4, labels, "verify"), _report_check(4, labels, extra), 1))
    for m in VERIFY_N5_LENGTHS:
        for _ in range(VERIFY_N5_PER_LENGTH):
            labels = random_loop(rng, 5, m)
            ops.append(
                Op(_check_argv(5, labels, "verify"), _report_check(5, labels, _oracles_agree), 1)
            )
    for n, word, golden in _golden(golden_dir):
        text = word_text(transform(rng, tuple(int(c) for c in word), n), n)
        for fmt in ("json", "obj"):
            argv = ("export", "--dim", str(n), "--word", text, "--format", fmt)
            if fmt == "obj" and n == 5:
                argv += ("--project", "4,5")
            ops.append(Op(argv, _export_check(fmt, n, len(word), golden), 0))
    return ops
