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
from itertools import count, islice
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


# each label of a word up to dimension 9 is one digit: its text by index
_DIGITS = "0123456789"


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
        if self.dim <= 9:
            return "".join(map(_DIGITS.__getitem__, self.labels))
        return " ".join(map(str, self.labels))


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
    labels = tuple(map(int, "".join(tokens) if dim <= 9 else tokens))
    return DirectionWord(labels, dim)


class JordanPath(NamedTuple):
    """A walk read once (:func:`_read_walk`): its word, its vertex trail
    and what the lattices, the canonical form and the gap invariant read
    off it.  :func:`validate` returns one only for a closed embedded
    covering walk.

    ``vertex_masks[i]`` is the vertex the walk occupies *before* edge
    i+1; the trail starts at mask 0, and the final edge returns there.
    ``profile`` is the repeat profile (module docstring); ``gaps[d]``
    lists direction d's profile entries in word order, wrapping gap first
    (one per edge), keyed by the directions used; ``rows`` holds the pair
    row ``(v_i ^ v_first(d)) & ~bit(d)`` of each edge after its
    direction's first, ``product`` the direction-product row
    ``XOR_d v_first(d) & ~bit(d)``.  Translating the trail changes no
    pair row, and the product row only in even dimension, where no
    lattice reads it, so ``path._replace(vertex_masks=...)`` rebases a
    walk.  The rows and each gap vector are tuples, so no caller can
    change a validated path's verdict through them; ``gaps`` itself is a
    dict, so a path is not hashable, and a key of it can still be
    assigned.
    """

    word: DirectionWord
    vertex_masks: tuple[int, ...]
    profile: tuple[int, ...]
    gaps: dict[int, tuple[int, ...]]
    rows: tuple[int, ...]
    product: int

    @property
    def dim(self) -> int:
        return self.word.dim

    @property
    def length(self) -> int:
        return len(self.word.labels)


def _read_walk(word: DirectionWord) -> JordanPath:
    """One pass over a word's labels, walking its vertex trail from mask
    0, with no checks (:func:`validate` makes them).  A direction's
    wrapping gap is known only once its last edge is read, so its first
    edge holds that edge's position until the pass ends."""
    labels = word.labels
    m = len(labels)
    masks = []
    profile = [0] * m
    gaps: dict[int, list[int]] = {}
    firsts: dict[int, int] = {}
    last: dict[int, int] = {}
    rows = []
    product = 0
    vertex = 0
    for i, d in enumerate(labels):
        masks.append(vertex)
        bit = 1 << d - 1
        if d in last:
            profile[i] = gap = i - last[d]
            gaps[d].append(gap)
            rows.append((vertex ^ firsts[d]) & ~bit)
        else:
            gaps[d] = [i]
            firsts[d] = vertex
            product ^= vertex & ~bit
        last[d] = i
        vertex ^= bit
    for d, vector in gaps.items():
        i = vector[0]
        vector[0] = profile[i] = m - last[d] + i
        gaps[d] = tuple(vector)
    return JordanPath(word, tuple(masks), tuple(profile), gaps, tuple(rows), product)


# the most unused directions a MissingDirectionError message names
_LISTED = 10


def validate(word: DirectionWord) -> JordanPath:
    """Check the Jordan-path requirements on the walk's one reading
    (:func:`_read_walk`), and return it.

    Raises, in order of precedence: OddLengthError, NotClosedError (some
    label count odd), MissingDirectionError (a direction never used),
    NotEmbeddedError (the walk revisits a vertex).  The dimension and the
    labels were checked when the :class:`DirectionWord` was built.
    """
    n = word.dim
    m = len(word.labels)
    if m % 2:
        raise OddLengthError(f"word has odd length {m}; closed walks have even length")
    path = _read_walk(word)
    # read off the directions used, which a high dimension can far outnumber
    gaps = path.gaps
    odd = sorted(d for d, vector in gaps.items() if len(vector) % 2)
    if odd:
        raise NotClosedError(
            f"direction(s) {odd} used an odd number of times; the walk "
            "cannot close"
        )
    unused = n - len(gaps)
    if unused:
        listed = [*islice((d for d in range(1, n + 1) if d not in gaps), _LISTED)]
        more = f" and {unused - len(listed)} more" if unused > len(listed) else ""
        raise MissingDirectionError(
            f"direction(s) {listed}{more} never used; the loop must span all "
            f"{n} directions"
        )
    masks = path.vertex_masks
    if len(set(masks)) < m:
        first: dict[int, int] = {}
        edges = next(i for i, v in enumerate(masks) if first.setdefault(v, i) < i)
        raise NotEmbeddedError(
            f"walk revisits a vertex after {edges} edges; the loop must be simple"
        )
    return path


# ---------------------------------------------------------------------------
# canonical forms


def canonicalize(word: DirectionWord) -> DirectionWord:
    """Representative of the word's class under shift, reversal, relabeling.

    Requires a closed word (every label count even); embeddedness and
    coverage are not needed.  Idempotent and constant on equivalence
    classes, and the result introduces labels in increasing order.  It is
    the word of the least repeat profile over the rotations of the word
    and of its reversal (module docstring).  Those profiles rearrange the
    same gaps, so only rotations that start with the smallest are compared.
    """
    return _canonical_form(_read_walk(word).profile, word.dim)


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
    that start with the smallest entry are compared; the empty sequence
    has only itself."""
    if not seq:
        return seq
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
    A direction's gap vector is read in word order (``JordanPath.gaps``).
    """
    return _gap_invariant(_read_walk(word).gaps, {})


def _gap_invariant(
    gaps: dict[int, tuple[int, ...]], forms: dict[tuple[int, ...], tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """:func:`gap_invariant` of a walk's gap vectors (``JordanPath.gaps``),
    each vector's least form read from ``forms``, or computed and added
    there on its first sight."""
    out = []
    for vec in gaps.values():
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
