"""Exact arithmetic in the reflection symmetry group and its finite quotient.

The ambient group consists of the isometries of R^n of the form

    x  |->  v + (-1)^rho x

where v is an integer translation vector and rho is a sign-flip pattern
(one bit per coordinate; bit set means that coordinate changes sign).
Composition follows from substituting one map into the other:

    (u, rho) o (v, sigma)  =  (u + (-1)^rho v, rho + sigma)

with the translation parts added over Z (sign-adjusted coordinatewise) and
the flip patterns added over Z_2.

Not every flip pattern occurs in the groups generated by edge rotations of
the unit cube: for even n all 2^n patterns are admissible, while for odd n
only the patterns with an even number of flipped coordinates arise.  That
admissible subgroup has order 2^n (n even) or 2^(n-1) (n odd).

Dividing by the normal subgroup of translations by multiples of 4 leaves a
finite quotient whose elements are determined by their translation vector
over Z_4 alone, because every element satisfies ``rho = v mod 2``
coordinatewise.  A quotient element is therefore stored as one machine
integer with two bits per coordinate (coordinate i occupies bits 2i and
2i+1), which makes composition a handful of bitwise operations and gives a
cheap total order for deterministic iteration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DimensionMismatchError, QuotientDomainError

__all__ = [
    "AmbientElement",
    "QuotientElement",
    "ambient_identity",
    "compose_ambient",
    "compose_quotient",
    "inverse_ambient",
    "project_to_quotient",
    "edge_rotation_flips",
    "flip_subgroup_order",
    "flip_vector",
    "in_flip_subgroup",
    "quotient_identity",
    "close_under_composition",
    "cube_edge_generators",
]


def flip_subgroup_order(dim: int) -> int:
    """Order of the admissible sign-flip subgroup: 2^n (n even), 2^(n-1) (n odd)."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    return 2**dim if dim % 2 == 0 else 2 ** (dim - 1)


def in_flip_subgroup(dim: int, flips: int) -> bool:
    """Whether a flip pattern occurs in the edge-rotation groups for this dimension."""
    if flips < 0 or flips >> dim:
        raise ValueError(f"flip mask {flips:#x} out of range for dimension {dim}")
    return dim % 2 == 0 or flips.bit_count() % 2 == 0


def edge_rotation_flips(dim: int, direction: int) -> int:
    """Flip pattern of the half-turn about a cube edge in the given direction.

    The rotation fixes the edge line, so every coordinate except the edge
    direction changes sign.  Directions are 1-based.
    """
    if not 1 <= direction <= dim:
        raise ValueError(f"direction {direction} out of range 1..{dim}")
    return ((1 << dim) - 1) ^ (1 << (direction - 1))


def flip_vector(dim: int, flips: int) -> tuple[int, ...]:
    """Expand a flip mask into a 0/1 vector, coordinate order."""
    return tuple((flips >> i) & 1 for i in range(dim))


# ---------------------------------------------------------------------------
# ambient elements


@dataclass(frozen=True, order=True)
class AmbientElement:
    """An isometry x |-> translation + (-1)^flips x with integer translation."""

    translation: tuple[int, ...]
    flips: int

    @property
    def dim(self) -> int:
        return len(self.translation)

    def apply(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a point (any coordinate scale where the translation is exact)."""
        return tuple(
            t + (-p if (self.flips >> i) & 1 else p)
            for i, (t, p) in enumerate(zip(self.translation, point))
        )


def ambient_identity(dim: int) -> AmbientElement:
    return AmbientElement((0,) * dim, 0)


def compose_ambient(a: AmbientElement, b: AmbientElement) -> AmbientElement:
    """a o b, i.e. apply b first, then a."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    translation = tuple(
        u + (-v if (a.flips >> i) & 1 else v)
        for i, (u, v) in enumerate(zip(a.translation, b.translation))
    )
    return AmbientElement(translation, a.flips ^ b.flips)


def inverse_ambient(a: AmbientElement) -> AmbientElement:
    # (v, rho)^-1 = (-(-1)^rho v, rho): solving v + (-1)^rho x = 0.
    translation = tuple(
        -t if not (a.flips >> i) & 1 else t for i, t in enumerate(a.translation)
    )
    return AmbientElement(translation, a.flips)


# ---------------------------------------------------------------------------
# quotient elements (translations mod 4; flips = translation mod 2)


@lru_cache(maxsize=None)
def _lane_masks(dim: int) -> tuple[int, int]:
    """(low-bit mask, high-bit mask) for ``dim`` two-bit lanes."""
    lo = 0
    for i in range(dim):
        lo |= 1 << (2 * i)
    return lo, lo << 1


def _pack(vector: Iterable[int]) -> int:
    packed = 0
    for i, c in enumerate(vector):
        packed |= (c % 4) << (2 * i)
    return packed


def _compose_packed(a: int, b: int, lo: int) -> int:
    # Negate the lanes of b wherever a is odd ((-x) mod 4 flips the high bit
    # iff the low bit is set), then add lanewise mod 4 without carry leakage.
    odd = a & lo
    b ^= ((b & lo) << 1) & (odd << 1)
    low = (a ^ b) & lo
    carry = (a & b & lo) << 1
    return low | ((a ^ b ^ carry) & ~lo)


@dataclass(frozen=True, order=True)
class QuotientElement:
    """Group element of the quotient, stored as packed Z_4 translation lanes."""

    dim: int
    packed: int

    @classmethod
    def from_vector(cls, vector: Iterable[int]) -> "QuotientElement":
        """Build from a Z_4 translation vector, checking the domain invariants."""
        vec = tuple(v % 4 for v in vector)
        flips = sum(1 << i for i, v in enumerate(vec) if v % 2)
        if not in_flip_subgroup(len(vec), flips):
            raise QuotientDomainError(
                f"translation parity pattern {flips:#x} is not admissible in "
                f"dimension {len(vec)}"
            )
        return cls(len(vec), _pack(vec))

    @property
    def vector(self) -> tuple[int, ...]:
        return tuple((self.packed >> (2 * i)) & 3 for i in range(self.dim))

    @property
    def flips(self) -> int:
        """Sign-flip mask, recovered as the translation's parity pattern."""
        lo, _ = _lane_masks(self.dim)
        odd = self.packed & lo
        mask = 0
        i = 0
        while odd:
            if odd & 1:
                mask |= 1 << i
            odd >>= 2
            i += 1
        return mask

    def apply_doubled(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a doubled-coordinate point on the doubled torus grid Z_8^n."""
        vec = self.vector
        return tuple(
            (2 * vec[i] + (-point[i] if vec[i] % 2 else point[i])) % 8
            for i in range(self.dim)
        )


def quotient_identity(dim: int) -> QuotientElement:
    return QuotientElement(dim, 0)


def compose_quotient(a: QuotientElement, b: QuotientElement) -> QuotientElement:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    lo, _ = _lane_masks(a.dim)
    return QuotientElement(a.dim, _compose_packed(a.packed, b.packed, lo))


def project_to_quotient(a: AmbientElement) -> QuotientElement:
    """Reduce an ambient element mod 4.  A group homomorphism on its domain."""
    flips = 0
    for i, t in enumerate(a.translation):
        if t % 2:
            flips |= 1 << i
    if flips != a.flips or not in_flip_subgroup(a.dim, a.flips):
        raise QuotientDomainError(
            "element lies outside the subgroup on which the quotient is defined "
            f"(translation {a.translation}, flips {flip_vector(a.dim, a.flips)})"
        )
    return QuotientElement(a.dim, _pack(a.translation))


# ---------------------------------------------------------------------------
# closure and the full cube's generators


def close_under_composition(
    generators: Iterable[QuotientElement],
) -> tuple[QuotientElement, ...]:
    """Subgroup generated by the given quotient elements, in sorted order.

    Adds the generators one at a time to a group of packed values, from
    the identity up, skipping those already in it: the group times the
    new generator gives new elements, closed breadth first under the
    generators kept so far.  Exact for any group; each kept generator at
    least doubles the order, so this is O(order * log2(order)) compositions.
    """
    gens = sorted(set(generators))
    if not gens:
        raise ValueError("generator list must be nonempty")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise DimensionMismatchError("generators mix dimensions")
    lo, _ = _lane_masks(dim)

    seen = {0}  # the identity
    kept: list[int] = []
    for g in (g.packed for g in gens):
        if g in seen:
            continue
        kept.append(g)
        # the coset of a group by an element outside it is disjoint from it
        frontier = [_compose_packed(x, g, lo) for x in seen]
        seen.update(frontier)
        while frontier:
            nxt = []
            for x in frontier:
                for k in kept:
                    y = _compose_packed(x, k, lo)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return tuple(QuotientElement(dim, p) for p in sorted(seen))


def cube_edge_generators(dim: int) -> tuple[QuotientElement, ...]:
    """Quotient rotations about *all* edges of the unit cube.

    One generator per edge: the translation vanishes along the edge
    direction and is +-1 (i.e. 1 or 3 mod 4) in every other coordinate,
    matching the midpoint of the edge doubled.  There are n * 2^(n-1).
    """
    out = []
    for direction in range(1, dim + 1):
        for signs in itertools.product((1, 3), repeat=dim - 1):
            it: Iterator[int] = iter(signs)
            vec = tuple(0 if i == direction - 1 else next(it) for i in range(dim))
            out.append(QuotientElement(dim, _pack(vec)))
    return tuple(out)
