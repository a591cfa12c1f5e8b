"""Edge loops on the unit n-cube: representation, validation, canonical forms.

A loop is written as a *direction word*: the sequence of coordinate
directions (labels 1..n) of its edges, read along the loop.  Starting from
a cube vertex, each label flips one coordinate between -1/2 and +1/2, so a
word describes a closed walk exactly when every label occurs an even number
of times.  The walk is a *Jordan path* when additionally it visits pairwise
distinct vertices and uses every direction at least once (so the loop spans
the cube rather than a face).

Vertices are stored as sign bitmasks: bit i set means coordinate i+1 sits
at -1/2.  The walk base vertex is normalized to (+1/2, ..., +1/2) (mask 0);
validity, canonical forms, and the symmetry set are all independent of that
choice, which the report layer records as a normalization note.

Two words describe the same unoriented loop up to cube symmetry when one
arises from the other by cyclic shifts, order reversal, and relabeling of
directions.  ``canonicalize`` picks one representative per equivalence
class: among all rotations of the word and of its reversal it minimizes
the cyclic repeat-distance profile (for each position, the distance back
to the previous edge in the same direction) and writes the winner's
directions in first-occurrence order.  The profile decides and the word
follows: position i's previous same-direction edge is i - p[i] (mod m), so
the cycles of that map are the direction classes, and the first-occurrence
relabelling depends only on those classes.  Rotations with equal profiles
thus have equal relabelled words, a tie-break on labels would never
decide, and the search runs on profiles alone.  The profile makes the
choice depend on the loop's parallelism structure alone.
"""

from __future__ import annotations

import re
from itertools import count, islice, repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadLabelError,
    MissingDirectionError,
    NotClosedError,
    NotEmbeddedError,
    OddLengthError,
)

__all__ = [
    "DirectionWord",
    "JordanPath",
    "SignSymmetry",
    "parse_word",
    "validate",
    "canonicalize",
    "gap_invariant",
    "path_symmetries",
]


class _Word(NamedTuple):
    """The fields of a :class:`DirectionWord`, whose checks need a
    ``__new__``, which a NamedTuple's own body may not define."""

    labels: tuple[int, ...]
    dim: int


class DirectionWord(_Word):
    """A raw edge word.  Only the dimension and the label range are checked
    at construction, raising in that order ValueError (dimension below 2)
    and BadLabelError (label outside 1..dim); the Jordan-path requirements
    are certified by :func:`validate`.  ``str(word)`` spells it as reports
    do: digits run together for dim <= 9, labels spaced out above.
    ``len(word)`` is the edge count; ``_make``, and so ``_replace``, build
    the word through the same checks."""

    __slots__ = ()

    def __new__(cls, labels: tuple[int, ...], dim: int) -> DirectionWord:
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, not {dim}")
        for lab in labels:
            if not 1 <= lab <= dim:
                raise BadLabelError(
                    f"label {lab} out of range 1..{dim} in word {format_word(labels)}"
                )
        return tuple.__new__(cls, (labels, dim))

    @classmethod
    def _make(cls, fields: Iterable) -> DirectionWord:
        # the NamedTuple form skips the checks and compares len() with 2
        return cls(*fields)

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return ("" if self.dim <= 9 else " ").join(map(str, self.labels))


def format_word(labels: Sequence[int]) -> str:
    return " ".join(str(lab) for lab in labels)


def parse_word(text: str, dim: int) -> DirectionWord:
    """Parse an edge word with or without separators.

    For dim <= 9 each digit is one label, so ``12314234`` and ``1 2 3 1 4 2
    3 4`` agree.  For dim > 9 labels must be separated by whitespace or
    commas (``"3 12 3 12"``), since a digit run would be ambiguous.  Only
    ASCII digits are labels; any other token raises BadLabelError.
    """
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise BadLabelError("empty word")
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise BadLabelError(f"not a direction label: {token!r}")
    if dim <= 9:
        labels = tuple(int(ch) for tok in tokens for ch in tok)
    else:
        labels = tuple(int(tok) for tok in tokens)
    return DirectionWord(labels, dim)


class JordanPath(NamedTuple):
    """A validated closed embedded covering walk, with its vertex trail.

    ``vertex_masks[i]`` is the vertex the walk occupies *before* edge i+1;
    :func:`validate` starts the trail at mask 0, and the final edge
    returns there.
    """

    word: DirectionWord
    vertex_masks: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.word.dim

    @property
    def length(self) -> int:
        return len(self.word.labels)


# the most unused directions a MissingDirectionError message names
_LISTED = 10


def validate(word: DirectionWord) -> JordanPath:
    """Check the Jordan-path requirements and return the walk based at mask 0.

    Raises, in order of precedence: OddLengthError, NotClosedError (some
    label count odd), MissingDirectionError (a direction never used),
    NotEmbeddedError (the walk revisits a vertex).  The dimension and the
    labels were checked when the :class:`DirectionWord` was built.
    """
    labels = word.labels
    n = word.dim
    if len(labels) % 2:
        raise OddLengthError(
            f"word has odd length {len(labels)}; closed walks have even length"
        )
    # read off the word, which a high dimension can far outnumber
    odd: set[int] = set()
    for lab in labels:
        odd ^= {lab}
    if odd:
        raise NotClosedError(
            f"direction(s) {sorted(odd)} used an odd number of times; the walk "
            "cannot close"
        )
    used = set(labels)
    unused = n - len(used)
    if unused:
        listed = [*islice((d for d in range(1, n + 1) if d not in used), _LISTED)]
        more = f" and {unused - len(listed)} more" if unused > len(listed) else ""
        raise MissingDirectionError(
            f"direction(s) {listed}{more} never used; the loop must span all "
            f"{n} directions"
        )
    trail = []
    vertex = 0
    seen: set[int] = set()
    for lab in labels:
        if vertex in seen:
            raise NotEmbeddedError(
                f"walk revisits a vertex after {len(trail)} edges; "
                "the loop must be simple"
            )
        seen.add(vertex)
        trail.append(vertex)
        vertex ^= 1 << (lab - 1)
    # even counts force the walk back to its base
    assert vertex == 0
    return JordanPath(word, tuple(trail))


def _census_path(word: DirectionWord) -> JordanPath:
    """The walk of a word that ``enumeration.enumerate_paths`` returned,
    based at mask 0, built without :func:`validate`'s checks: the census
    walk has already proved it closed, simple and covering.  Any other
    word, a canonical one included, goes through :func:`validate`."""
    trail = []
    append = trail.append
    vertex = 0
    for lab in word.labels:
        append(vertex)
        vertex ^= 1 << (lab - 1)
    return JordanPath(word, tuple(trail))


# ---------------------------------------------------------------------------
# canonical forms


class _Reading(NamedTuple):
    """A walk read once: ``gaps[d]`` lists direction d's profile entries in
    word order, wrapping gap first (one per edge); ``rows`` holds the pair
    row ``(v_i ^ v_first(d)) & ~bit(d)`` of each edge after its direction's
    first, ``product`` the direction-product row ``XOR_d v_first(d) & ~bit(d)``."""

    profile: tuple[int, ...]
    gaps: dict[int, list[int]]
    rows: list[int]
    product: int


def _read_walk(labels: Sequence[int], masks: Iterable[int]) -> _Reading:
    """One pass over a walk's labels and vertex masks.  A direction's
    wrapping gap is known only once its last edge is read, so its first
    edge holds that edge's position until the pass ends."""
    m = len(labels)
    profile = [0] * m
    gaps: dict[int, list[int]] = {}
    firsts: dict[int, int] = {}
    last: dict[int, int] = {}
    rows = []
    product = 0
    for i, d, vertex in zip(count(), labels, masks):
        if d in last:
            profile[i] = gap = i - last[d]
            gaps[d].append(gap)
            rows.append((vertex ^ firsts[d]) & ~(1 << d - 1))
        else:
            gaps[d] = [i]
            firsts[d] = vertex
            product ^= vertex & ~(1 << d - 1)
        last[d] = i
    for d, vector in gaps.items():
        i = vector[0]
        vector[0] = profile[i] = m - last[d] + i
    return _Reading(tuple(profile), gaps, rows, product)


def _repeat_profile(labels: Sequence[int]) -> tuple[int, ...]:
    """Cyclic distance from each position to the previous same-direction edge."""
    return _read_walk(labels, repeat(0)).profile  # no trail: rows unused


def canonicalize(word: DirectionWord) -> DirectionWord:
    """Representative of the word's class under shift, reversal, relabeling.

    Requires a closed word (every label count even); embeddedness and
    coverage are not needed.  Idempotent and constant on equivalence
    classes, and the result introduces labels in increasing order.  It is
    the word of the least repeat profile over the rotations of the word
    and of its reversal (module docstring).  Those profiles rearrange the
    same gaps, so only rotations that start with the smallest are compared.
    """
    return _canonical_form(_repeat_profile(word.labels), word.dim)


def _canonical_form(profile: tuple[int, ...], dim: int) -> DirectionWord:
    """:func:`canonicalize` of a word of dimension ``dim``, given its
    repeat profile."""
    least = _least_rotation(profile, _reversed_profile(profile))
    return DirectionWord(_word_from_profile(least), dim)


def _word_from_profile(profile: Sequence[int]) -> tuple[int, ...]:
    """The first-occurrence form of the words with this repeat profile
    (module docstring): position i repeats the label of position
    i - p[i], or takes the next new label when p[i] > i, where the
    previous same-direction edge wraps around."""
    new = count(1)
    out: list[int] = []
    for i, p in enumerate(profile):
        out.append(out[i - p] if p <= i else next(new))
    return tuple(out)


def _reversed_profile(profile: tuple[int, ...]) -> tuple[int, ...]:
    """The repeat profile of the reversed word, built without the word: it
    is the forward profile read at the next same-direction edge."""
    following = [0] * len(profile)
    for k, p in enumerate(profile):
        following[k - p] = p  # k - p, mod m, is the previous same-direction edge
    return tuple(following[::-1])


def _least_rotation(seq: tuple[int, ...], reverse: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of ``seq`` or of ``reverse``, the same cycle read
    backwards.  All rotations rearrange the same entries, so only those
    that start with the smallest entry are compared."""
    m = len(seq)
    low = min(seq)
    return min(
        doubled[r : r + m]
        for doubled in (seq + seq, reverse + reverse)
        for r in range(m)
        if doubled[r] == low
    )


def _is_least_rotation(profile: tuple[int, ...]) -> bool:
    """The rotation comparison of ``oracles.is_canonical``, given a closed
    word's repeat profile, whose first entry must be its smallest: no
    rotation of the word or of its reversal that starts with that gap has
    a smaller profile.  An equal profile is the same relabelled word
    (module docstring), so no labels are compared.  The forward rotations
    start at r = 1, since r = 0 is the profile itself; the reversal is
    built only if none is smaller, and its rotations start at r = 0.
    Each pass stops at its first smaller rotation (``_least_rotation``
    compares them all)."""
    m = len(profile)
    gap = profile[0]
    doubled = profile + profile
    for r in range(1, m):
        if profile[r] == gap and doubled[r : r + m] < profile:
            return False
    reverse = _reversed_profile(profile)
    doubled = reverse + reverse
    for r in range(m):
        if reverse[r] == gap and doubled[r : r + m] < profile:
            return False
    return True


def gap_invariant(word: DirectionWord) -> tuple[tuple[int, ...], ...]:
    """Multiset of per-direction cyclic gap vectors, as a sorted tuple.

    For each direction, the gaps are the cyclic distances between its
    consecutive occurrences; each gap vector is taken up to rotation and
    reversal.  The multiset is unchanged by all four word symmetries, so
    distinct invariants certify distinct classes (the converse can fail).
    A direction's gap vector is read in word order (``_Reading.gaps``).
    """
    return _gap_invariant(_read_walk(word.labels, repeat(0)).gaps, {})


def _gap_invariant(
    gaps: dict[int, list[int]], forms: dict[tuple[int, ...], tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """:func:`gap_invariant` of a walk's gap vectors (``_Reading.gaps``),
    each vector's least form read from ``forms``, or computed and added
    there on its first sight."""
    out = []
    for vec in map(tuple, gaps.values()):
        form = forms.get(vec)
        if form is None:
            form = forms[vec] = _min_cyclic(vec)
        out.append(form)
    return tuple(sorted(out))


def _min_cyclic(vec: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of a gap vector or of its reversal."""
    if len(vec) == 2:
        # the two rotations are the two reversals
        return vec if vec[0] <= vec[1] else vec[::-1]
    return _least_rotation(vec, vec[::-1])


# ---------------------------------------------------------------------------
# sign-change symmetries


class SignSymmetry(NamedTuple):
    """A coordinate sign change mapping the loop onto itself as a point set.

    ``orientation_preserving`` is decided by flip-count parity for even
    dimensions and left undetermined (None) for odd ones, where the parity
    of a representing rotation word is not a function of the sign change
    alone.
    """

    flips: tuple[int, ...]
    orientation_preserving: bool | None


def path_symmetries(path: JordanPath) -> tuple[SignSymmetry, ...]:
    """All nontrivial sign changes preserving the loop's edge set.

    A sign change acts on vertex masks by XOR and keeps every edge's
    direction, so it carries the loop to the walk of the same word from
    the image of the base vertex.  That image must be a loop vertex v_j
    (``vertex_masks[j]``), so the sign change is ``v_0 ^ v_j`` for some
    0 < j < m.  The image walk leaves v_j along a loop edge, and a simple
    cycle is fixed by a start and a first edge: it is the loop exactly when
    the word equals the loop read forward from edge j (the labels rotated
    by j) or backward from edge j - 1 (the reversed word read from there).
    Either reading starts with ``labels[0]``, so only positions j with
    ``labels[j]`` or ``labels[j - 1]`` equal to it are compared, each in
    O(m).  The result does not depend on the base vertex: moving the base
    translates every vertex by the same XOR, which commutes with the
    symmetry action.
    """
    n = path.dim
    masks = path.vertex_masks
    labels = path.word.labels
    m = len(labels)
    first = labels[0]
    doubled = labels + labels
    backward = doubled[::-1]  # backward[m - j:] starts with labels[j - 1]
    out = []
    for j in range(1, m):
        if (labels[j] == first and doubled[j : j + m] == labels) or (
            labels[j - 1] == first and backward[m - j : 2 * m - j] == labels
        ):
            mask = masks[0] ^ masks[j]
            preserving = (mask.bit_count() % 2 == 0) if n % 2 == 0 else None
            out.append(
                SignSymmetry(tuple((mask >> i) & 1 for i in range(n)), preserving)
            )
    return tuple(sorted(out))
