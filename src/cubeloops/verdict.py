"""Decisions about the reflected surface: embedded, orientable, Euler data.

The fast path decides everything from the translation lattice, which the
walk's vertex trail determines in O(mn) time: the surface is embedded
exactly when the even translation lattice has order 4 (even dimension) or
8 (odd), and the reflection group order follows as flip-subgroup order
times lattice order.  A whole fast report is polynomial in m and n: the
rest of it is the canonical form (a least rotation of a profile, skipped
for a census word, which is canonical already) and the sign symmetries (the
word against its rotations and reversals that start with its first label,
each compared in O(m)).
A census listing builds its reports with ``_listing_reports``, one core
shared with :func:`build_report`.  The census walk has proved every class
it returns closed, simple and covering, so the listing reads each walk off
its word without :func:`validate`'s checks (``paths._census_path``), and
computes each distinct gap vector's least form and each length's edge
bound once per listing, in tables made afresh for each listing.
The verifying path recomputes the group by brute-force closure and the
self-intersection test by exact patch geometry; any disagreement between
the three methods is an internal invariant violation, never a user error.
It imports the closure and geometry layers (:mod:`cubeloops.reflection`,
:mod:`cubeloops.geometry`) when it runs, so the fast path never loads them.

Orientability: in even dimension the surface and both standard quotients
are orientable.  In odd dimension the surface (and its quotient by the
pair lattice) is orientable exactly when the direction-product translation
falls outside the pair lattice — that is, when the even lattice has higher
rank than the pair lattice — while the quotient by all even translations
is never orientable.  A report reads the pair lattice off the trail in
one pass, each edge against its direction's first vertex, and derives
every decision from it; in odd dimension a second pass reads the
direction-product row.

The Euler characteristic of the compact quotient by twice-integer
translations counts cells of the patch complex: each patch contributes
m/4 vertices, m/2 edges and 1 face once the four-fold vertex and two-fold
edge identifications of an embedded surface are accounted for.  The genus
is reported only where that quotient is orientable (even dimension).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from .errors import BudgetExceededError, InternalInvariantError
from .groups import flip_subgroup_order
from .lattice import (
    TranslationLattice,
    even_lattice_from_pair,
    even_translation_lattice,
    pair_translation_lattice,
)
from .paths import (
    DirectionWord,
    JordanPath,
    SignSymmetry,
    _gap_invariant,
    canonicalize,
    format_word,
    gap_invariant,
    path_symmetries,
    validate,
)

__all__ = [
    "EmbeddedDecision",
    "OrientabilityFlags",
    "BoundDiagnostic",
    "DirectionLoadDiagnostic",
    "SurfaceReport",
    "decide_embedded",
    "edge_bound",
    "per_direction_bound",
    "build_report",
]

RULED_OUT = "ruled-out"
MAYBE_EMBEDDED = "maybe-embedded"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class EmbeddedDecision:
    """Embeddedness with the reflection group order that certifies it, and
    the Euler data of an embedded surface.

    The surface is embedded exactly when the even translation lattice has
    order 4 (even dimension) or 8 (odd); ``reflection_group_order`` is the
    flip-subgroup order times the lattice order.  ``euler_char`` and
    ``genus`` are None unless the surface is embedded, and ``genus`` is
    also None in odd dimension (module docstring).
    """

    embedded: bool
    reflection_group_order: int
    euler_char: int | None
    genus: int | None


def decide_embedded(path: JordanPath) -> EmbeddedDecision:
    lattice = even_translation_lattice(path)
    return _decide_from_lattice(path.dim, path.length, lattice)


def _decide_from_lattice(
    dim: int, length: int, lattice: TranslationLattice
) -> EmbeddedDecision:
    flips = flip_subgroup_order(dim)
    order = flips * lattice.order
    if lattice.order != (4 if dim % 2 == 0 else 8):
        return EmbeddedDecision(False, order, None, None)
    chi = flips * (4 - length) // 4
    genus = 1 - chi // 2 if dim % 2 == 0 else None
    return EmbeddedDecision(True, order, chi, genus)


@dataclass(frozen=True)
class OrientabilityFlags:
    """Orientability of the surface and of its two standard quotients."""

    surface: bool
    quotient_by_pair_lattice: bool
    quotient_by_even_translations: bool


def _orientable(
    pair: TranslationLattice, even: TranslationLattice
) -> OrientabilityFlags:
    if pair.dim % 2 == 0:
        return OrientabilityFlags(True, True, True)
    surface = even.rank != pair.rank
    return OrientabilityFlags(surface, surface, False)


@dataclass(frozen=True)
class BoundDiagnostic:
    """Outcome of a necessary edge-count condition for embeddedness."""

    verdict: str
    reason: str
    limit: int | None = None
    heuristic: bool = False

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "limit": self.limit,
            "heuristic": self.heuristic,
        }


def edge_bound(dim: int, length: int) -> BoundDiagnostic:
    """Necessary length conditions: cycle capacity and the dimension bounds.

    A simple cycle on the cube has at most 2^dim vertices.  In even
    dimension an embedded surface forces at most 4(dim-1) edges; in odd
    dimension the working bound 8(dim-3)+18 is applied and flagged as
    heuristic (it rests on the even-dimensional argument applied
    coordinate-wise, not on a full proof).  For dim 5, 7, 9, 11 and 13,
    4(dim-1) holds by exhaustive search: the complete embedded censuses,
    searched up to the proven 8*dim edges (eight per direction; see
    :mod:`cubeloops.enumeration`), reach at most 16, 24, 32, 40 and 48
    edges (8, 16, 27, 40 and 56 classes), against working bounds of 34,
    50, 66, 82 and 98.
    """
    capacity = 1 << dim
    if length > capacity:
        return BoundDiagnostic(
            RULED_OUT,
            f"{length} edges exceed the {capacity}-vertex cycle capacity of the "
            f"{dim}-cube",
            capacity,
        )
    limit = 4 * (dim - 1) if dim % 2 == 0 else 8 * (dim - 3) + 18
    if dim % 2 == 0:
        if length > limit:
            return BoundDiagnostic(
                RULED_OUT,
                f"{length} edges exceed the embedded-surface limit {limit} "
                f"for dimension {dim}",
                limit,
            )
        return BoundDiagnostic(MAYBE_EMBEDDED, f"within the limit {limit}", limit)
    if length > limit:
        return BoundDiagnostic(
            RULED_OUT,
            f"{length} edges exceed the working odd-dimension limit {limit}",
            limit,
            heuristic=True,
        )
    return BoundDiagnostic(
        MAYBE_EMBEDDED, f"within the working limit {limit}", limit, heuristic=True
    )


@dataclass(frozen=True)
class DirectionLoadDiagnostic:
    """Per-direction edge counts against the four-edge ceiling (even dim).

    An embedded surface in even dimension admits at most four edges per
    direction; a direction carrying exactly four forces every lattice
    element to vanish on that axis (recorded in ``constrained_axes``).
    """

    verdict: str
    reason: str
    counts: tuple[int, ...]
    overloaded_axes: tuple[int, ...] = ()
    constrained_axes: tuple[int, ...] = ()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "counts": list(self.counts),
            "overloaded_axes": list(self.overloaded_axes),
            "constrained_axes": list(self.constrained_axes),
        }


def per_direction_bound(path: JordanPath) -> DirectionLoadDiagnostic:
    counts = [0] * path.dim
    for label in path.word.labels:
        counts[label - 1] += 1
    counts_t = tuple(counts)
    if path.dim % 2:
        return DirectionLoadDiagnostic(
            NOT_APPLICABLE,
            "per-direction ceiling applies to even dimension only",
            counts_t,
        )
    overloaded = tuple(d + 1 for d, c in enumerate(counts) if c > 4)
    constrained = tuple(d + 1 for d, c in enumerate(counts) if c == 4)
    if overloaded:
        return DirectionLoadDiagnostic(
            RULED_OUT,
            f"direction(s) {list(overloaded)} carry more than 4 edges",
            counts_t,
            overloaded,
            constrained,
        )
    return DirectionLoadDiagnostic(
        MAYBE_EMBEDDED,
        "no direction carries more than 4 edges",
        counts_t,
        (),
        constrained,
    )


@dataclass(frozen=True)
class SurfaceReport:
    """Everything the tool can say about one loop's periodic surface."""

    dim: int
    word: DirectionWord
    canonical: DirectionWord
    length: int
    lattice: TranslationLattice
    reflection_group_order: int
    embedded: bool
    orientable: OrientabilityFlags
    euler_char: int | None
    genus: int | None
    symmetries: tuple[SignSymmetry, ...]
    gaps: tuple[tuple[int, ...], ...]
    edge_bound: BoundDiagnostic
    direction_load: DirectionLoadDiagnostic
    family: dict[str, Any] | None = None
    oracle_checks: dict[str, Any] | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": 1,
            "dim": self.dim,
            "word": str(self.word),
            "canonical": str(self.canonical),
            "m": self.length,
            "embedded": self.embedded,
            "s_q_order": self.reflection_group_order,
            "lattice_basis": [
                [row >> k & 1 for k in range(self.dim)] for row in self.lattice.rows
            ],
            "lattice_order": self.lattice.order,
            "orientable_sigma": self.orientable.surface,
            "orientable_quotient_lambda0": self.orientable.quotient_by_pair_lattice,
            "orientable_quotient_2z": self.orientable.quotient_by_even_translations,
            "euler_char": self.euler_char,
            "genus": self.genus,
            "symmetries": [
                {
                    "flips": list(s.flips),
                    "orientation_preserving": s.orientation_preserving,
                }
                for s in self.symmetries
            ],
            "family": self.family,
            "oracle_checks": self.oracle_checks,
            "gap_invariant": [list(v) for v in self.gaps],
            "bounds": {
                "edge_bound": self.edge_bound.to_json_dict(),
                "direction_load": self.direction_load.to_json_dict(),
            },
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = [
            f"word:       {self.word}",
            f"canonical:  {format_word(self.canonical.labels)}"
            + (f"  ({self.canonical})" if self.dim <= 9 else ""),
            f"dim:        {self.dim}   edges: {self.length}",
            f"embedded:   {_yn(self.embedded)}   "
            f"(lattice order {self.lattice.order}, "
            f"reflection group order {self.reflection_group_order})",
            "orientable: "
            f"surface {_yn(self.orientable.surface)}; "
            f"quotient/pair-lattice "
            f"{_yn(self.orientable.quotient_by_pair_lattice)}; "
            f"quotient/even-translations "
            f"{_yn(self.orientable.quotient_by_even_translations)}",
        ]
        if self.euler_char is not None:
            genus = "n/a" if self.genus is None else str(self.genus)
            lines.append(f"euler char: {self.euler_char}   genus: {genus}")
        basis = (
            " ".join(str(v).replace(" ", "") for v in self.lattice.basis_vectors())
            or "(trivial)"
        )
        lines.append(f"lattice:    {basis}")
        if self.symmetries:
            syms = " ".join(
                str(s.flips).replace(" ", "") for s in self.symmetries
            )
        else:
            syms = "none"
        lines.append(f"symmetries: {syms}")
        lines.append(
            f"bounds:     {self.edge_bound.verdict} ({self.edge_bound.reason}); "
            f"direction load {self.direction_load.verdict}"
        )
        if self.family:
            lines.append(f"family:     {self.family}")
        if self.oracle_checks:
            lines.append(f"oracles:    {self.oracle_checks}")
        for note in self.notes:
            lines.append(f"note:       {note}")
        return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def build_report(
    word: DirectionWord | JordanPath,
    mode: str = "fast",
    family: dict[str, Any] | None = None,
) -> SurfaceReport:
    """Assemble the full report for a loop, in fast or verifying mode.

    A :class:`DirectionWord` (from ``parse_word`` or built directly) is
    validated first, a canonical one too; a :class:`JordanPath` is used
    as it is.  A census listing builds its reports with
    :func:`_listing_reports` instead, from the walks the census has
    already proved simple.

    Fast mode derives everything from the translation lattice.  Verifying
    mode additionally runs the brute-force group closure and the exact
    geometric self-intersection test, and raises InternalInvariantError if
    any method disagrees — that would falsify the underlying
    classification, not the input.  Both oracles run whenever the closure's
    patches fit PATCH_COORDINATE_BUDGET, which is known before any work;
    over it neither runs, every ``oracle_checks`` value is None, and a note
    gives the patch and coordinate counts against the budget.
    """
    _check_mode(mode)
    path = word if isinstance(word, JordanPath) else validate(word)
    gaps = gap_invariant(path.word)
    return _report(path, mode, family, gaps, edge_bound(path.dim, path.length))


def _listing_reports(paths: Iterable[JordanPath], mode: str) -> list[SurfaceReport]:
    """The reports of a census listing's walks, of one dimension, in order,
    each equal to :func:`build_report`'s.

    The listing shares two tables, made afresh for each listing: each
    distinct gap vector's least form (a census has far fewer distinct
    vectors than classes) and each length's edge bound, each computed on
    first sight.
    """
    _check_mode(mode)
    forms: dict[tuple[int, ...], tuple[int, ...]] = {}
    bounds: dict[int, BoundDiagnostic] = {}
    reports = []
    for path in paths:
        m = path.length
        bound = bounds.get(m)
        if bound is None:
            bound = bounds[m] = edge_bound(path.dim, m)
        gaps = _gap_invariant(path.word.labels, forms)
        reports.append(_report(path, mode, None, gaps, bound))
    return reports


def _check_mode(mode: str) -> None:
    if mode not in ("fast", "verify"):
        raise ValueError(f"mode must be 'fast' or 'verify', not {mode!r}")


def _report(
    path: JordanPath,
    mode: str,
    family: dict[str, Any] | None,
    gaps: tuple[tuple[int, ...], ...],
    bound: BoundDiagnostic,
) -> SurfaceReport:
    """The report of a walk, given its gap invariant and edge bound."""
    n = path.dim
    m = path.length
    pair = pair_translation_lattice(path)
    lattice = even_lattice_from_pair(path, pair)
    decision = _decide_from_lattice(n, m, lattice)
    orientable = _orientable(pair, lattice)
    symmetries = path_symmetries(path)
    notes = _report_notes(path, decision.embedded, symmetries)
    oracle_checks = None
    if mode == "verify":
        oracle_checks, refusal = _run_oracles(path, lattice, decision)
        notes += refusal
    return SurfaceReport(
        dim=n,
        word=path.word,
        canonical=canonicalize(path.word),
        length=m,
        lattice=lattice,
        reflection_group_order=decision.reflection_group_order,
        embedded=decision.embedded,
        orientable=orientable,
        euler_char=decision.euler_char,
        genus=decision.genus,
        symmetries=symmetries,
        gaps=gaps,
        edge_bound=bound,
        direction_load=per_direction_bound(path),
        family=family,
        oracle_checks=oracle_checks,
        notes=notes,
    )


def _report_notes(
    path: JordanPath, embedded: bool, symmetries: tuple[SignSymmetry, ...]
) -> tuple[str, ...]:
    notes = [
        "walk base normalized to the all-plus cube corner; every reported "
        "quantity is independent of that choice",
        "the lattice shown is the part determined by the word alone; an "
        "initial surface with extra sign symmetries can enlarge the full "
        "translation lattice (the symmetry list above is the available proxy)",
    ]
    if (
        embedded
        and path.dim % 2 == 0
        and any(s.orientation_preserving for s in symmetries)
    ):
        notes.append(
            "an orientation-preserving sign symmetry exists; if the initial "
            "surface inherits it, the quotient by the enlarged lattice has "
            "lower genus than reported"
        )
    return tuple(notes)


def _run_oracles(
    path: JordanPath,
    lattice: TranslationLattice,
    decision: EmbeddedDecision,
) -> tuple[dict[str, Any], tuple[str, ...]]:
    """The oracle checks, and a note when the patch budget refuses them."""
    from .geometry import closure_within_budget, expand_patches, vertex_incidence
    from .reflection import filled_cubes

    n = path.dim
    checks: dict[str, Any] = dict.fromkeys(
        (
            "closure_order",
            "closure_agrees",
            "filled_cube_counts_equal",
            "geometric_max_multiplicity",
            "geometric_embedded",
            "geometric_agrees",
        )
    )
    try:
        closure = closure_within_budget(path)
    except BudgetExceededError as exc:
        return checks, (f"verify-mode oracles not run: {exc}",)
    checks["closure_order"] = closure.order
    expected = decision.reflection_group_order
    closure_embedded = closure.order == 1 << (n + 2)
    agree = closure.order == expected and closure_embedded == decision.embedded
    checks["closure_agrees"] = agree
    counts = set(filled_cubes(closure).values())
    checks["filled_cube_counts_equal"] = (
        len(counts) == 1 and closure.order == (1 << n) * counts.pop()
    )
    if not agree:
        raise InternalInvariantError(
            f"group closure order {closure.order} disagrees with the "
            f"lattice-derived order {expected} "
            f"(lattice order {lattice.order})"
        )
    if not checks["filled_cube_counts_equal"]:
        raise InternalInvariantError(
            "filled-cube counts are not balanced across the large cubes"
        )
    incidence = vertex_incidence(expand_patches(path, closure))
    checks["geometric_max_multiplicity"] = incidence.max_multiplicity
    checks["geometric_embedded"] = incidence.embedded
    checks["geometric_agrees"] = incidence.embedded == decision.embedded
    if not checks["geometric_agrees"]:
        raise InternalInvariantError(
            f"geometric verdict (max multiplicity "
            f"{incidence.max_multiplicity}) disagrees with the lattice "
            f"criterion (embedded={decision.embedded})"
        )
    return checks, ()
