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
to the previous edge in the same direction) and relabels the winner's
directions in first-occurrence order.  The profile decides and the word
follows: position i's previous same-direction edge is i - p[i] (mod m), so
the cycles of that map are the direction classes, and the first-occurrence
relabelling depends only on those classes.  Rotations with equal profiles
thus have equal relabelled words, and a tie-break on labels would never
decide.  The profile makes the choice depend on the loop's parallelism
structure alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    BadLabelError,
    MissingDirectionError,
    NotClosedError,
    NotEmbeddedError,
    OddLengthError,
)

__all__ = [
    "DirectionWord",
    "CanonicalWord",
    "JordanPath",
    "SignSymmetry",
    "parse_word",
    "validate",
    "canonicalize",
    "gap_invariant",
    "path_symmetries",
]


@dataclass(frozen=True, order=True)
class DirectionWord:
    """A raw edge word.  Only the dimension (at least 2) and the label range
    are checked at construction; the Jordan-path requirements are certified
    by :func:`validate`."""

    labels: tuple[int, ...]
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, not {self.dim}")
        for lab in self.labels:
            if not 1 <= lab <= self.dim:
                raise BadLabelError(
                    f"label {lab} out of range 1..{self.dim} in word "
                    f"{format_word(self.labels)}"
                )

    def __len__(self) -> int:
        return len(self.labels)

    def compact(self) -> str:
        """Digit string, only well-defined for dim <= 9."""
        return "".join(str(lab) for lab in self.labels)


class CanonicalWord(DirectionWord):
    """A direction word that is the fixed point chosen by :func:`canonicalize`.

    Built only by :func:`canonicalize` and by the census walk once it has
    proved the word canonical; :func:`canonicalize` trusts the type."""


def format_word(labels: Sequence[int]) -> str:
    return " ".join(str(lab) for lab in labels)


def parse_word(text: str, dim: int) -> DirectionWord:
    """Parse an edge word with or without separators.

    For dim <= 9 each digit is one label, so ``12314234`` and ``1 2 3 1 4 2
    3 4`` agree.  For dim > 9 labels must be separated by whitespace or
    commas (``"3 12 3 12"``), since a digit run would be ambiguous.
    """
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise BadLabelError("empty word")
    if any(not t.isdigit() for t in tokens):
        bad = next(t for t in tokens if not t.isdigit())
        raise BadLabelError(f"not a direction label: {bad!r}")
    if dim <= 9:
        labels = tuple(int(ch) for tok in tokens for ch in tok)
    else:
        labels = tuple(int(tok) for tok in tokens)
    return DirectionWord(labels, dim)


@dataclass(frozen=True)
class JordanPath:
    """A validated closed embedded covering walk, with its vertex trail.

    ``vertex_masks[i]`` is the vertex the walk occupies *before* edge i+1;
    the trail starts at ``base_mask`` and the final edge returns there.
    """

    word: DirectionWord
    base_mask: int
    vertex_masks: tuple[int, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.word.dim

    @property
    def length(self) -> int:
        return len(self.word.labels)


def validate(
    word: DirectionWord | Sequence[int],
    dim: int | None = None,
    base_mask: int = 0,
) -> JordanPath:
    """Check the Jordan-path requirements and return the certified walk.

    Raises, in order of precedence: ValueError (dimension below 2),
    BadLabelError (label out of range), OddLengthError, NotClosedError
    (some label count odd), MissingDirectionError (a direction never
    used), NotEmbeddedError (the walk revisits a vertex).
    """
    if not isinstance(word, DirectionWord):
        if dim is None:
            raise ValueError("dim is required when passing a bare label sequence")
        word = DirectionWord(tuple(word), dim)
    labels = word.labels
    n = word.dim
    if len(labels) % 2:
        raise OddLengthError(
            f"word has odd length {len(labels)}; closed walks have even length"
        )
    counts = [0] * (n + 1)
    for lab in labels:
        counts[lab] += 1
    odd = [d for d in range(1, n + 1) if counts[d] % 2]
    if odd:
        raise NotClosedError(
            f"direction(s) {odd} used an odd number of times; the walk cannot close"
        )
    missing = [d for d in range(1, n + 1) if counts[d] == 0]
    if missing:
        raise MissingDirectionError(
            f"direction(s) {missing} never used; the loop must span all {n} directions"
        )
    trail = []
    vertex = base_mask
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
    assert vertex == base_mask
    return JordanPath(word, base_mask, tuple(trail))


# ---------------------------------------------------------------------------
# canonical forms


def _relabel_first_occurrence(labels: Sequence[int]) -> tuple[int, ...]:
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping) + 1
        out.append(mapping[lab])
    return tuple(out)


def _repeat_profile(labels: Sequence[int]) -> tuple[int, ...]:
    """Cyclic distance from each position to the previous same-direction edge."""
    m = len(labels)
    prev: dict[int, int] = {}
    for i in range(m - 1, -1, -1):  # seed with wrapped-around predecessors
        if labels[i] not in prev:
            prev[labels[i]] = i - m
    out = []
    for i, lab in enumerate(labels):
        out.append(i - prev[lab])
        prev[lab] = i
    return tuple(out)


def canonicalize(word: DirectionWord) -> CanonicalWord:
    """Representative of the word's class under shift, reversal, relabeling.

    Requires a closed word (every label count even); embeddedness and
    coverage are not needed.  Idempotent and constant on equivalence
    classes, and the result introduces labels in increasing order.  The
    least repeat profile over the 2m rotations of the word and of its
    reversal decides, and the word follows: only the winning rotation is
    relabelled, since a profile fixes its relabelled word (module
    docstring).  The result's profile starts with the word's smallest
    cyclic gap, since every candidate profile rearranges the same gaps.

    A :class:`CanonicalWord` is returned unchanged, without the search
    over its 2m rotations: only this function and the census walk
    construct one, so it is already the fixed point.  The walk
    (``enumeration._search``) rotates each closed walk's profile to start
    at its smallest gap and builds the word only after
    ``_is_least_rotation`` has proved it its own canonical form.  Pass a
    plain :class:`DirectionWord` to recompute it.
    """
    if isinstance(word, CanonicalWord):
        return word
    labels = word.labels
    m = len(labels)
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for seq in (labels, labels[::-1]):
        profile = _repeat_profile(seq)
        for r in range(m):
            rotated_profile = profile[r:] + profile[:r]
            if best is None or rotated_profile < best[0]:
                best = rotated_profile, seq[r:] + seq[:r]
    assert best is not None
    return CanonicalWord(_relabel_first_occurrence(best[1]), word.dim)


def _is_least_rotation(profile: tuple[int, ...]) -> bool:
    """The rotation comparison of ``oracles.is_canonical``, given a closed
    word's repeat profile, whose first entry must be its smallest: no
    rotation of the word or of its reversal that starts with that gap has
    a smaller profile.  An equal profile is the same relabelled word
    (module docstring), so no labels are compared.  The forward rotations
    start at r = 1, since r = 0 is the profile itself; the reversed ones
    at r = 0.  The reversed word's profile is the forward one read at the
    next same-direction edge, so it is built without the word."""
    m = len(profile)
    gap = profile[0]
    following = [0] * m
    for k, p in enumerate(profile):
        following[k - p] = p  # k - p, mod m, is the previous same-direction edge
    reverse = tuple(following[::-1])
    for seq, start in ((profile, 1), (reverse, 0)):
        doubled = seq + seq
        for r in range(start, m):
            if seq[r] == gap and doubled[r : r + m] < profile:
                return False
    return True


def gap_invariant(word: DirectionWord) -> tuple[tuple[int, ...], ...]:
    """Multiset of per-direction cyclic gap vectors, as a sorted tuple.

    For each direction, the gaps are the cyclic distances between its
    consecutive occurrences; each gap vector is taken up to rotation and
    reversal.  The multiset is unchanged by all four word symmetries, so
    distinct invariants certify distinct classes (the converse can fail).
    """
    m = len(word.labels)
    positions: dict[int, list[int]] = {}
    for i, lab in enumerate(word.labels):
        positions.setdefault(lab, []).append(i)
    vectors = []
    for pos in positions.values():
        gaps = tuple(
            (pos[(k + 1) % len(pos)] - pos[k]) % m for k in range(len(pos))
        )
        vectors.append(_min_cyclic(gaps))
    return tuple(sorted(vectors))


def _min_cyclic(vec: tuple[int, ...]) -> tuple[int, ...]:
    k = len(vec)
    if k == 2:
        # the two rotations are the two reversals
        return vec if vec[0] <= vec[1] else vec[::-1]
    candidates = [vec[r:] + vec[:r] for r in range(k)]
    rev = vec[::-1]
    candidates += [rev[r:] + rev[:r] for r in range(k)]
    return min(candidates)


# ---------------------------------------------------------------------------
# sign-change symmetries


@dataclass(frozen=True, order=True)
class SignSymmetry:
    """A coordinate sign change mapping the loop onto itself as a point set.

    ``orientation_preserving`` is decided by flip-count parity for even
    dimensions and left undetermined (None) for odd ones, where the parity
    of a representing rotation word is not a function of the sign change
    alone.
    """

    flips: tuple[int, ...]
    orientation_preserving: bool | None

    @property
    def mask(self) -> int:
        return sum(1 << i for i, f in enumerate(self.flips) if f)


def path_symmetries(path: JordanPath) -> tuple[SignSymmetry, ...]:
    """All nontrivial sign changes preserving the loop's edge set.

    A sign change acts on vertex masks by XOR, so the check is purely
    combinatorial.  Every loop vertex lies on a loop edge, so a sign change
    that maps the edge set onto itself maps the vertex set onto itself and
    in particular sends ``vertex_masks[0]`` to some loop vertex v.  The
    sign change is then ``vertex_masks[0] ^ v``: the m - 1 masks built from
    the other loop vertices are the only candidates, which makes the search
    O(m^2) instead of O(2^n m).  Each candidate must map the vertex set
    onto itself, then the edge set.  The result does not depend on the base
    vertex: moving the base translates every edge by the same XOR, which
    commutes with the symmetry action.
    """
    n = path.dim
    masks = path.vertex_masks
    vertices = set(masks)
    edges = _edge_set(path)
    out = []
    for v in masks[1:]:
        mask = masks[0] ^ v
        if all(a ^ mask in vertices for a in masks) and all(
            _edge(a ^ mask, b ^ mask) in edges for a, b in edges
        ):
            preserving = (mask.bit_count() % 2 == 0) if n % 2 == 0 else None
            out.append(
                SignSymmetry(tuple((mask >> i) & 1 for i in range(n)), preserving)
            )
    return tuple(sorted(out))


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _edge_set(path: JordanPath) -> set[tuple[int, int]]:
    masks = path.vertex_masks
    return {_edge(a, b) for a, b in zip(masks, masks[1:] + masks[:1])}
