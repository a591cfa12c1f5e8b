"""Exact arithmetic in the finite quotient of the reflection symmetry group.

The edge rotations of a loop are isometries of R^n of the form

    x  |->  v + (-1)^rho x

where v is an integer translation vector and rho is a sign-flip pattern
(one bit per coordinate; bit set means that coordinate changes sign).
Not every flip pattern occurs in the groups they generate: for even n all
2^n patterns are admissible, while for odd n only the patterns with an
even number of flipped coordinates arise.  That admissible subgroup has
order 2^n (n even) or 2^(n-1) (n odd).

Dividing by the normal subgroup of translations by multiples of 4 leaves a
finite quotient whose elements are determined by their translation vector
over Z_4 alone, because every element satisfies ``rho = v mod 2``
coordinatewise.  A quotient element is therefore stored as one machine
integer with two bits per coordinate (coordinate i occupies bits 2i and
2i+1), which makes composition a handful of bitwise operations and gives a
cheap total order for deterministic iteration.  The ambient group itself
is kept in :mod:`cubeloops.oracles`, as a cross-check, with the parts of
the quotient's algebra that only the tests use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

__all__ = [
    "QuotientElement",
    "flip_subgroup_order",
    "close_under_composition",
]


def flip_subgroup_order(dim: int) -> int:
    """Order of the admissible sign-flip subgroup: 2^n (n even), 2^(n-1) (n odd)."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    return 2**dim if dim % 2 == 0 else 2 ** (dim - 1)


# ---------------------------------------------------------------------------
# quotient elements (translations mod 4; flips = translation mod 2)


@lru_cache(maxsize=None)
def _lane_masks(dim: int) -> int:
    """Mask of the low bit of each of ``dim`` two-bit lanes."""
    lo = 0
    for i in range(dim):
        lo |= 1 << (2 * i)
    return lo


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


class QuotientElement(NamedTuple):
    """Group element of the quotient, stored as packed Z_4 translation lanes;
    its sign-flip pattern is the parity pattern of its ``vector``."""

    dim: int
    packed: int

    @property
    def vector(self) -> tuple[int, ...]:
        packed = self.packed
        return tuple([packed >> 2 * i & 3 for i in range(self.dim)])


# ---------------------------------------------------------------------------
# closure


def close_under_composition(
    generators: Iterable[QuotientElement],
) -> tuple[QuotientElement, ...]:
    """Subgroup generated by the given quotient elements, in sorted order.

    Adds the generators one at a time to a group of packed values, from
    the identity up: a generator g outside the group H so far adds the
    coset H o g, and nothing else.  That is exact for every packed value,
    admissible or not.  Composing x with itself negates each odd lane of
    x and adds it to itself, so odd lanes cancel, and even lanes (0 or 2)
    double to 0 mod 4: every element is an involution.  A group whose
    elements are all involutions is abelian (ab = (ab)^-1 = b^-1 a^-1 =
    ba), so every product of elements of H and g is h or h o g for some h
    in H.  Each generator kept doubles the order, so this takes fewer
    compositions than the order of the result.
    """
    gens = sorted(set(generators))
    if not gens:
        raise ValueError("generator list must be nonempty")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("generators mix dimensions")
    lo = _lane_masks(dim)

    group = {0}  # the identity
    for g in (g.packed for g in gens):
        if g not in group:
            group |= {_compose_packed(x, g, lo) for x in group}
    return tuple(QuotientElement(dim, p) for p in sorted(group))
