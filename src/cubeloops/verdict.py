"""Decisions about the reflected surface: embedded, orientable, Euler data.

The fast path decides everything from the translation lattice, which the
walk's vertex trail determines in O(mn) time: the surface is embedded
exactly when the even translation lattice has order 4 (even dimension) or
8 (odd), and the reflection group order follows as flip-subgroup order
times lattice order.  A whole fast report is polynomial in m and n.  It
reads the walk once (``paths._read_walk``) for the repeat profile, each
direction's gap vector and edge count, and the pair and product rows;
the rest is the canonical form (a least rotation of that profile, which
a census listing skips) and the sign symmetries (the word against its
rotations and reversals that start with its first label, each compared
in O(m)).

Both census listings of ``enumerate`` live here.  The census walk has
proved every class it returns closed, simple and covering, so a listing
reads each walk off its word without :func:`validate`'s checks
(``paths._census_path``), and each census word is its own canonical
word.  The text listing (:func:`_listed_lines`) reads each verdict and
genus off the lattice, and in verify mode also runs the oracle checks,
without building a report.  The JSON listing (:func:`_listed_classes`)
keys each class on the inputs that fix its report's shape
(:func:`_report_shape`) and builds a :class:`SurfaceReport`, through the
core that :func:`build_report` shares (``_report``), only for the first
class of each shape.
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
is never orientable.  A report reduces its reading's pair rows, each edge
against its direction's first vertex, and in odd dimension adjoins the
direction-product row of the first vertices, unless the pair lattice has
full rank already.

The Euler characteristic of the compact quotient by twice-integer
translations counts cells of the patch complex: each patch contributes
m/4 vertices, m/2 edges and 1 face once the four-fold vertex and two-fold
edge identifications of an embedded surface are accounted for.  The genus
is reported only where that quotient is orientable (even dimension).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import BudgetExceededError, InternalInvariantError
from .groups import flip_subgroup_order
from .lattice import (
    TranslationLattice,
    _pair_lattice,
    even_lattice_from_pair,
    even_translation_lattice,
)
from .paths import (
    DirectionWord,
    JordanPath,
    SignSymmetry,
    _canonical_form,
    _census_path,
    _gap_invariant,
    _read_walk,
    _Reading,
    format_word,
    path_symmetries,
    validate,
)

if TYPE_CHECKING:
    from .jsontext import Encoded

__all__ = [
    "EmbeddedDecision",
    "OrientabilityFlags",
    "BoundDiagnostic",
    "DirectionLoadDiagnostic",
    "SurfaceReport",
    "decide_embedded",
    "edge_bound",
    "build_report",
]

RULED_OUT = "ruled-out"
MAYBE_EMBEDDED = "maybe-embedded"
NOT_APPLICABLE = "not-applicable"


class EmbeddedDecision(NamedTuple):
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


class OrientabilityFlags(NamedTuple):
    """Orientability of the surface and of its two standard quotients."""

    surface: bool
    quotient_by_pair_lattice: bool
    quotient_by_even_translations: bool


def _orientable(dim: int, pair_rank: int, even_rank: int) -> OrientabilityFlags:
    if dim % 2 == 0:
        return OrientabilityFlags(True, True, True)
    surface = even_rank != pair_rank
    return OrientabilityFlags(surface, surface, False)


class BoundDiagnostic(NamedTuple):
    """Outcome of a necessary edge-count condition for embeddedness."""

    verdict: str
    reason: str
    limit: int | None = None
    heuristic: bool = False


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
    heuristic = dim % 2 == 1
    if heuristic:
        limit = 8 * (dim - 3) + 18
        within = f"the working limit {limit}"
        over = f"the working odd-dimension limit {limit}"
    else:
        limit = 4 * (dim - 1)
        within = f"the limit {limit}"
        over = f"the embedded-surface limit {limit} for dimension {dim}"
    if length > limit:
        reason = f"{length} edges exceed {over}"
        return BoundDiagnostic(RULED_OUT, reason, limit, heuristic)
    return BoundDiagnostic(MAYBE_EMBEDDED, f"within {within}", limit, heuristic)


class DirectionLoadDiagnostic(NamedTuple):
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


def _edge_counts(dim: int, gaps: dict[int, list[int]]) -> tuple[int, ...]:
    return tuple(len(gaps[d]) for d in range(1, dim + 1))


def _direction_load(dim: int, counts: tuple[int, ...]) -> DirectionLoadDiagnostic:
    if dim % 2:
        return DirectionLoadDiagnostic(
            NOT_APPLICABLE,
            "per-direction ceiling applies to even dimension only",
            counts,
        )
    overloaded = tuple(d + 1 for d, c in enumerate(counts) if c > 4)
    constrained = tuple(d + 1 for d, c in enumerate(counts) if c == 4)
    if overloaded:
        return DirectionLoadDiagnostic(
            RULED_OUT,
            f"direction(s) {list(overloaded)} carry more than 4 edges",
            counts,
            overloaded,
            constrained,
        )
    return DirectionLoadDiagnostic(
        MAYBE_EMBEDDED,
        "no direction carries more than 4 edges",
        counts,
        (),
        constrained,
    )


class SurfaceReport(NamedTuple):
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
                "edge_bound": self.edge_bound._asdict(),
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
    word: DirectionWord,
    mode: str = "fast",
    family: dict[str, Any] | None = None,
) -> SurfaceReport:
    """Assemble the full report for a loop, in fast or verifying mode.

    The word (from ``parse_word`` or built directly) is validated first,
    a canonical one too.  The JSON census listing
    (:func:`_listed_classes`) builds its reports from
    :func:`_report_shape` instead, one for each report shape, from the
    walks the census has already proved simple; the text listing
    (:func:`_listed_lines`) builds none.

    Fast mode derives everything from the translation lattice.  Verifying
    mode additionally runs the brute-force group closure and the exact
    geometric self-intersection test, and raises InternalInvariantError if
    any method disagrees — that would falsify the underlying
    classification, not the input.  Both oracles run whenever the closure's
    patches fit PATCH_COORDINATE_BUDGET, which is known before any work;
    over it neither runs, every ``oracle_checks`` value is None, and a note
    gives the patch and coordinate counts against the budget.
    """
    if mode not in ("fast", "verify"):
        raise ValueError(f"mode must be 'fast' or 'verify', not {mode!r}")
    path = validate(word)
    reading = _read_walk(word.labels, path.vertex_masks)
    shape = _report_shape(path, reading, mode)
    canonical = _canonical_form(reading.profile, word.dim)
    return _report(path, shape, canonical, _gap_invariant(reading.gaps, {}), family)


class _Shape(NamedTuple):
    """The inputs of a walk's report that fix its shape: every report
    field but the word, the canonical word and the gap invariant.

    Walks with equal shapes have one dimension n (the lattice holds it)
    and reports that agree in every other field once ``family`` is set
    alike (a census listing sets none).  Each field of the report is a
    function of n and these inputs:

    - ``lattice`` is the even lattice, held here;
    - the length m is the sum of ``counts``, each edge counted in its
      direction;
    - the decision (embedded flag, reflection group order, χ and genus) is
      :func:`_decide_from_lattice` of (n, m, the even lattice);
    - ``orientable`` is :func:`_orientable` of (n, ``pair_rank``, the even
      lattice's rank): only the pair lattice's rank is held, since its
      rows would split shapes (keyed on them, the 1,494 classes of the
      full n=5 census up to 14 edges would make 121 templates for 93
      shapes);
    - ``symmetries`` are held;
    - ``edge_bound`` is :func:`edge_bound` of (n, m);
    - ``direction_load`` is :func:`_direction_load` of (n, ``counts``);
    - ``oracle_checks`` are held, as their items in a fixed key order,
      each value of one type (an int, a bool, or None when refused), so
      tuple equality is equality of the checks (``True == 1`` never
      meets);
    - ``notes`` are :func:`_report_notes` of (n, the embedded flag,
      ``symmetries``), then ``refusal``, the note of a verify run that
      the patch budget refused, held here (it reads n, m and the group
      order).

    The lattice and each symmetry are ``NamedTuple``s too, equal exactly
    when their fields are, and each of those fields holds one type within
    a dimension (a symmetry's flips are ints, its orientation flag a bool
    in even n and None in odd).  So equal shapes give equal report shapes.
    The key is also no finer than the report: each input is printed as it
    is, moves the printed orientability (``pair_rank``, given the lattice)
    or ends the notes (``refusal``).
    """

    lattice: TranslationLattice
    pair_rank: int
    symmetries: tuple[SignSymmetry, ...]
    counts: tuple[int, ...]
    oracle_checks: tuple[tuple[str, Any], ...] | None
    refusal: tuple[str, ...]


def _report_shape(path: JordanPath, reading: _Reading, mode: str) -> _Shape:
    """The inputs that fix the report's shape, from the walk and its one
    reading (``paths._read_walk``); in verify mode (any other mode is
    fast) the oracles run here, and raise when they disagree."""
    pair = _pair_lattice(path.dim, reading)
    lattice = even_lattice_from_pair(pair, reading.product)
    checks, refusal = None, ()
    if mode == "verify":
        decision = _decide_from_lattice(path.dim, path.length, lattice)
        checks, refusal = _run_oracles(path, decision)
    return _Shape(
        lattice,
        pair.rank,
        path_symmetries(path),
        _edge_counts(path.dim, reading.gaps),
        checks,
        refusal,
    )


def _report(
    path: JordanPath,
    shape: _Shape,
    canonical: DirectionWord,
    gaps: tuple[tuple[int, ...], ...],
    family: dict[str, Any] | None = None,
) -> SurfaceReport:
    """The report of a walk, given its shape's inputs and per-class fields."""
    n = path.dim
    m = path.length
    lattice = shape.lattice
    decision = _decide_from_lattice(n, m, lattice)
    checks = shape.oracle_checks
    return SurfaceReport(
        dim=n,
        word=path.word,
        canonical=canonical,
        length=m,
        lattice=lattice,
        reflection_group_order=decision.reflection_group_order,
        embedded=decision.embedded,
        orientable=_orientable(n, shape.pair_rank, lattice.rank),
        euler_char=decision.euler_char,
        genus=decision.genus,
        symmetries=shape.symmetries,
        gaps=gaps,
        edge_bound=edge_bound(n, m),
        direction_load=_direction_load(n, shape.counts),
        family=family,
        oracle_checks=None if checks is None else dict(checks),
        notes=_report_notes(n, decision.embedded, shape.symmetries)
        + shape.refusal,
    )


def _listed_lines(words: Iterable[DirectionWord], mode: str) -> list[str]:
    """The text listing of census classes: each class's length, word,
    embedded verdict and genus, read off its lattice.  Verify mode also
    runs each class's oracle checks, without a report.  Every class is
    decided before any line is returned, so a verify run whose oracles
    disagree raises before the listing writes anything."""
    lines = []
    for path in map(_census_path, words):
        decision = decide_embedded(path)
        if mode == "verify":
            _run_oracles(path, decision)
        flags = "embedded" if decision.embedded else "not embedded"
        genus = "" if decision.genus is None else f"  genus={decision.genus}"
        lines.append(f"m={path.length:>3}  {path.word}  {flags}{genus}")
    return lines


# stands for each per-class value while a shape's text is encoded
_SLOT = "\0"
# a class sits two levels deep (document, classes); a gap vector four
_CLASS_NEWLINE = "\n" + " " * 4
_VECTOR_NEWLINE = "\n" + " " * 8


def _listed_classes(
    words: Iterable[DirectionWord], mode: str
) -> Iterator[list[Encoded]]:
    """The JSON listing's classes for ``jsontext.stream``, one encoded
    report at a time, with one :class:`SurfaceReport` built per report
    shape.

    Each class's walk (module docstring) is read once
    (``paths._read_walk``) for its gap invariant and the inputs that fix
    its report's shape (:class:`_Shape`, whose docstring proves the key
    exact), in verify mode its oracle checks among them.  Every class's
    inputs are computed here, before any text: a verify run whose oracles
    disagree raises before the listing writes anything, and interleaving
    the inputs with the encoding made the full n=4 listing about 7%
    slower (600 alternating in-process calls each way, 2 CPUs, Python
    3.11.7).
    """
    forms: dict[tuple[int, ...], tuple[int, ...]] = {}
    inputs = []
    for path in map(_census_path, words):
        reading = _read_walk(path.word.labels, path.vertex_masks)
        shape = _report_shape(path, reading, mode)
        inputs.append((path, shape, _gap_invariant(reading.gaps, forms)))
    return _encoded_classes(inputs)


def _encoded_classes(
    inputs: list[tuple[JordanPath, _Shape, tuple[tuple[int, ...], ...]]],
) -> Iterator[list[Encoded]]:
    """Each class's text, from its walk, shape and gaps.

    On a shape's first class its report is built from those inputs and
    its :meth:`SurfaceReport.to_json_dict` is encoded with slots for the
    word, the canonical word and each of the ``dim`` gap vectors (one
    per direction, all used); the text is split at the slots.  Each class
    of that shape joins its own values into those parts; a gap vector's
    text is also encoded once.
    """
    from .jsontext import Encoded, dumps

    slot = dumps(_SLOT, 2)
    templates: dict[_Shape, tuple[list[str], str]] = {}
    vectors: dict[tuple[int, ...], str] = {}

    def vector_text(vector: tuple[int, ...]) -> str:
        text = vectors.get(vector)
        if text is None:
            text = vectors[vector] = dumps(vector, 2).replace("\n", _VECTOR_NEWLINE)
        return text

    for path, shape, gaps in inputs:
        template = templates.get(shape)
        if template is None:
            document = _report(path, shape, path.word, gaps).to_json_dict()
            document["word"] = document["canonical"] = _SLOT
            document["gap_invariant"] = [_SLOT] * path.dim
            text = dumps(document, 2).replace("\n", _CLASS_NEWLINE)
            *parts, tail = text.split(slot)
            template = templates[shape] = parts, tail
        word = dumps(str(path.word), 2)
        parts, tail = template
        values = (word, word, *map(vector_text, gaps))
        text = "".join(chain.from_iterable(zip(parts, values, strict=True)))
        yield [Encoded(text + tail)]


def _report_notes(
    dim: int, embedded: bool, symmetries: tuple[SignSymmetry, ...]
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
        and dim % 2 == 0
        and any(s.orientation_preserving for s in symmetries)
    ):
        notes.append(
            "an orientation-preserving sign symmetry exists; if the initial "
            "surface inherits it, the quotient by the enlarged lattice has "
            "lower genus than reported"
        )
    return tuple(notes)


def _run_oracles(
    path: JordanPath, decision: EmbeddedDecision
) -> tuple[tuple[tuple[str, Any], ...], tuple[str, ...]]:
    """The oracle checks as items, and a note when the patch budget
    refuses them."""
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
        return tuple(checks.items()), (f"verify-mode oracles not run: {exc}",)
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
            f"(lattice order {expected // flip_subgroup_order(n)})"
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
    return tuple(checks.items()), ()
