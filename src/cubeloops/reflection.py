"""Reflection symmetries attached to a loop and the group they generate.

Rotating space half a turn about the line through one edge of the loop maps
the loop's spanning disk to a congruent copy in a neighboring cube; doing
this repeatedly tiles space with copies ("patches").  This module builds
those edge rotations exactly in the finite quotient group, computes the
finite group they generate, and counts the patches in each block of the
4-periodic torus.

Each edge rotation fixes the edge's axis and reverses all other
coordinates; its translation part is twice the edge midpoint.  In the
quotient all these elements are self-inverse and commute, which keeps the
closure small (a power of two) and the searches exact.  An element's
block is read off its packed Z_4 lanes as they are: the 2-bit of each
lane, with the 1-bits masked away.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import NamedTuple

from .groups import QuotientElement, _lane_masks, _pack, close_under_composition
from .paths import JordanPath

__all__ = [
    "ReflectionClosure",
    "reflection_generators",
    "reflection_closure",
    "filled_cubes",
]


def reflection_generators(path: JordanPath) -> tuple[QuotientElement, ...]:
    """The m edge rotations of a validated loop, in walk order.

    Edge i runs from walk vertex i along axis d = word label i.  Doubling
    its midpoint gives the translation: 0 on the edge's own axis, 1 where
    the vertex coordinate is +1/2 and -1 = 3 (mod 4) where it is -1/2 on
    every other axis.  The flips, every axis but the edge's own, are the
    parity pattern of that vector: n - 1 axes, admissible in either parity.
    """
    n = path.dim
    return tuple(
        QuotientElement(
            n, _pack(0 if k == d - 1 else 3 if mask >> k & 1 else 1 for k in range(n))
        )
        for d, mask in zip(path.word.labels, path.vertex_masks)
    )


class ReflectionClosure(NamedTuple):
    """The finite group generated by the edge rotations in the quotient.

    ``elements`` is sorted and deterministic; the group always contains
    the identity, is closed under composition, and its order is a power
    of two.
    """

    dim: int
    elements: tuple[QuotientElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def reflection_closure(
    generators: tuple[QuotientElement, ...],
) -> ReflectionClosure:
    """Closure of the edge rotations under composition."""
    elements = close_under_composition(generators)
    return ReflectionClosure(elements[0].dim, elements)


def filled_cubes(closure: ReflectionClosure) -> dict[tuple[int, ...], int]:
    """How many surface patches each 2x...x2 block of the 4-periodic torus holds.

    A patch sits in the unit cube named by its closure element's vector
    in {0,1,2,3}^n; cube v belongs to the block with even anchor ``a``
    when v - a has all entries in {0,1}, so ``a`` is v with each
    coordinate's 1-bit cleared.  On the packed lanes that is the element
    masked to the 2-bit of every lane, and those ints are counted
    without building a vector.  Every one of the 2^n blocks is a key, in
    ``product((0, 2), repeat=n)`` order, an empty one with count 0; the
    counts are all equal for walks based at a cube vertex.
    """
    high = _lane_masks(closure.dim) << 1
    blocks = Counter(element.packed & high for element in closure.elements)
    return {
        anchor: blocks[_pack(anchor)]
        for anchor in product((0, 2), repeat=closure.dim)
    }
