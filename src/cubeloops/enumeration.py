"""Search and generation of loop classes: exhaustive census and named families.

The census walks the cube graph depth-first from a fixed corner, with the
first edge in direction 1 and new direction labels introduced in
increasing order.  It walks one rotation of each class's canonical word
(:func:`canonicalize` relabels in first-occurrence order) and keeps a
closed walk only when that rotation, relabelled, is its own canonical
form, so it emits every class exactly once (orderly generation: R. C.
Read, Ann. Discrete Math. 2, 1978; B. D. McKay, J. Algorithms 26, 1998).
Pruning uses exact necessities only, met by every prefix of every such
rotation (of every embedded one, for the embedded-only cuts), so no class
is cut: the walk must be able to get home within budget (each odd-count
direction needs another edge, each unused direction two), revisits are
forbidden, no gap may fall below the smallest gap, and the embedded-only
mode adds the dimension-specific length caps and a lattice-rank cut.

Every child is checked before it is entered.  The home-distance bound
``need`` is the one above, one edge per odd-count direction plus two per
unused direction, kept per child instead of recomputed: it falls by one
for the next new direction and for a used direction whose vertex bit is
set, and rises by one for a used direction whose bit is clear.  A child
whose bound exceeds the edges left is never called.  The cut is exact:
it is the bound a child would test on entry, tested one level earlier.

The walk is rooted at a smallest gap.  A gap is the cyclic distance from
an edge back to the previous edge in the same direction, and the repeat
profile lists the gaps in word order.  :func:`canonicalize` compares the
profiles of all rotations of the word and of its reversal before any
labels.  They rearrange one multiset, so the canonical word C of length m
starts with its smallest gap g: C[0] = 1, and the direction-1 edge before
it is C[m - g].  The walk looks for W, the rotation of C that starts at
position m - g, relabelled in first-occurrence order.  Every gap of W is
at least g, so its first g edges have distinct directions and the next
repeats the first: W = 1 2 ... g 1 ....  The walk therefore makes two
cuts, each a necessity for W:

- until direction 1 recurs, every edge introduces a new direction, since
  a repeat would make a gap below the g still to come;
- direction 1 recurs at depth g and fixes g; from then on, a child whose
  gap ``depth - last[d]`` lies below g is never entered.

At a closing edge in direction d, W is kept only when the closing gap and
every direction's wrapping gap ``m - last[e] + first[e]`` are at least g.
A direction e > g first occurs after position g, so only e <= g, with
``first[e] = e - 1``, can wrap below g.  These tests say that the profile of C, which
is W's profile rotated by g, starts with its smallest entry.  That is the
precondition of ``paths._is_least_rotation`` (shared with
``oracles.is_canonical``), which then compares C, the first-occurrence
relabelling of ``W[g:] + W[:g]``, with the rotations of C and of its
reversal that start with gap g: profile first and relabelled word on a
tie, stopping at the first smaller one.  The result is exact both ways.
A canonical C yields a W that passes every cut, because each cut is a
necessity for it.  A kept W yields a canonical C, and C fixes g and hence
W, so each class is emitted once.  For the full census of dimension 5 up
to 14 edges the walk makes 18,496 calls, and 6,903 closed walks reach
``_is_least_rotation``.

The rank cut keeps the prefix's pair-lattice rows — ``(v_i ^ v_first(d))
& ~bit(d)`` for every edge after its direction's first — as a GF(2)
echelon basis pushed and popped with the walk.  Each row is fixed by the
prefix, so the prefix's lattice is a subgroup of the finished loop's and
its rank never falls as the word grows.  An embedded surface has an even
lattice of order 4 (even dimension) or 8 (odd), and the pair lattice lies
inside it, so its rank is at most 2 or 3; a branch or closing edge that
would pass that rank has no embedded completion, canonical or not, and is
cut.  It also bounds each direction's edges: two direction-d edges with
equal pair rows are the same cube edge, so a direction has at most 4
edges (even dimension) or 8 (odd).  The pair lattice does not depend
on where the word starts, and relabelling keeps its rank, so the cut
holds for W as for C.  The embedded verdict on each class kept stays the
final filter.

Shard k of K walks the levels above depth n + 1, where subtrees far
outnumber workers, and descends only into the subtrees k, k + K, ... at
that depth.  No loop is shorter than 2n, so each closed word lies in
exactly one subtree and the shards' outputs are disjoint.  Only the
subtrees the walk enters are numbered; which children the cuts skip
depends on the prefix alone, so every shard numbers them alike.

The named families reproduce the known infinite series of embedded
loops — three two-parameter families, the sharp maximal-length family,
and the low-lattice series — together with the dimension-raising operator
that threads new axes through one direction of a seed loop, alternating
orientation edge by edge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import count
from typing import Any

from .errors import BadParametersError
from .lattice import pair_translation_lattice
from .paths import (
    CanonicalWord,
    DirectionWord,
    _is_least_rotation,
    _relabel_first_occurrence,
    validate,
)
from .verdict import decide_embedded, embedded_length_cap

__all__ = [
    "EnumerationQuery",
    "FamilySpec",
    "FAMILY_NAMES",
    "enumerate_paths",
    "family_word",
    "expand_word",
]


@dataclass(frozen=True)
class EnumerationQuery:
    """A resolved census request: dimension, even length window, filters."""

    dim: int
    min_length: int
    max_length: int
    embedded_only: bool = False
    limit: int | None = None

    @classmethod
    def create(
        cls,
        dim: int,
        length: int | None = None,
        min_length: int | None = None,
        max_length: int | None = None,
        embedded_only: bool = False,
        limit: int | None = None,
    ) -> "EnumerationQuery":
        """Normalize a request: exact length wins over a range; open range
        ends clamp to the feasible window [2*dim, 2**dim] (tightened by the
        embedded-length caps when filtering to embedded classes)."""
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, not {dim}")
        lo = 2 * dim
        hi = 1 << dim
        if length is not None:
            if min_length is not None or max_length is not None:
                raise ValueError("give either an exact length or a range, not both")
            if length % 2 or not lo <= length <= hi:
                raise ValueError(
                    f"length must be even and within [{lo}, {hi}] "
                    f"for dimension {dim}, not {length}"
                )
            lo = hi = length
        else:
            if min_length is not None:
                lo = max(lo, min_length + (min_length % 2))
            if max_length is not None:
                hi = min(hi, max_length - (max_length % 2))
        if embedded_only:
            hi = min(hi, embedded_length_cap(dim))  # lo > hi: no embedded class
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be nonnegative, not {limit}")
        return cls(dim, lo, hi, embedded_only, limit)


def enumerate_paths(
    query: EnumerationQuery, jobs: int = 1
) -> tuple[CanonicalWord, ...]:
    """All loop classes matching the query, one canonical word per class.

    Deterministic output sorted by (length, word), independent of the
    worker count: the search emits each class once, so ``jobs`` shards
    (at most the CPU count) split its subtrees and the parent merges them.
    Raises ValueError when ``jobs`` is below 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if query.min_length > query.max_length:
        return ()
    shards = min(jobs, os.cpu_count() or 1)
    if shards <= 1:
        words = _search(query)
    else:
        # imported only here, so that a serial census and the other
        # commands do not load multiprocessing
        from multiprocessing import Pool

        with Pool(processes=shards) as pool:
            chunks = pool.starmap(_search, [(query, k, shards) for k in range(shards)])
        words = [word for chunk in chunks for word in chunk]
    words.sort(key=lambda word: (len(word.labels), word.labels))
    return tuple(words[: query.limit])


def _search(
    query: EnumerationQuery, shard: int = 0, shards: int = 1
) -> list[CanonicalWord]:
    """Depth-first walk emitting the canonical word of every class the
    query admits, each once; with ``shards`` > 1, only those in the
    ``shard``-th share of the subtrees (module docstring)."""
    n = query.dim
    max_len = query.max_length
    min_len = query.min_length
    # the split depth of the module docstring (never reached unsharded)
    split_depth = n + 1 if shards > 1 else -1
    subtrees = count()
    out: list[CanonicalWord] = []

    # embedded-only rank cut (module docstring): the prefix's pair-lattice
    # echelon basis, pivots[k] holding the row whose leading bit is k
    rank_cap = (2 if n % 2 == 0 else 3) if query.embedded_only else None
    first_vertex = [0] * (n + 1)
    pivots = [0] * n
    rank = 0

    def residue(d: int, vertex: int) -> int:
        """The pair row of an edge in direction d leaving the vertex,
        reduced modulo the basis (0 when it is already spanned)."""
        row = (vertex ^ first_vertex[d]) & ~(1 << (d - 1))
        while row:
            pivot = pivots[row.bit_length() - 1]
            if not pivot:
                break
            row ^= pivot
        return row

    def admit(d: int, vertex: int) -> int | None:
        """Record the pair row of a repeated direction-d edge leaving the
        vertex; the pivot row added (0 if none), or None when the rank
        would pass the cap."""
        nonlocal rank
        row = residue(d, vertex)
        if row:
            if rank == rank_cap:
                return None
            pivots[row.bit_length() - 1] = row
            rank += 1
        return row

    # the prefix and its repeat profile (module docstring): word[i] and
    # gaps[i] for i < depth, and first[d], last[d] for the used directions;
    # the first edge leaves the base vertex 0 in direction 1
    word = [1] * max_len
    gaps = [0] * max_len
    first = [0] * (n + 1)
    last = [0] * (n + 1)

    def extend(
        depth: int, vertex: int, visited: int, used: int, g: int, need: int
    ) -> None:
        """Grow the prefix of ``depth`` edges ending at ``vertex``: the
        ``visited`` vertex set includes it, directions 1..``used`` occur,
        ``g`` is the smallest gap (0 until direction 1 recurs) and ``need``
        the edges still needed to get home."""
        nonlocal rank
        if depth == split_depth and next(subtrees) % shards != shard:
            return
        if need == 1 and depth >= min_len - 1:
            # one edge home, every direction used: the closing edge leaves
            # in direction d != 1 (the walk never comes back to vertex 1)
            d = vertex.bit_length()
            m = depth + 1
            prior = last[d]
            last[d] = depth
            # the closing gap and every wrapping gap m - last[e] + first[e]
            # are at least g (module docstring); only e <= g, with
            # first[e] = e - 1, can wrap below g
            if (
                depth - prior >= g
                and all(last[e] - e < m - g for e in range(1, g + 1))
                and (rank_cap is None or rank < rank_cap or not residue(d, vertex))
            ):
                profile = gaps[:depth]
                profile.append(depth - prior)
                for e in range(1, n + 1):
                    profile[first[e]] = m - last[e] + first[e]
                # the canonical candidate starts at the second direction-1
                # edge, where W's smallest gap g stands
                closed = _relabel_first_occurrence((*word[g:depth], d, *word[:g]))
                if _is_least_rotation(closed, (*profile[g:], *profile[:g])):
                    canonical = CanonicalWord(closed, n)
                    if (
                        rank_cap is None
                        or decide_embedded(validate(canonical)).embedded
                    ):
                        out.append(canonical)
            last[d] = prior
        # edges left after the child's; the closing edge is handled above,
        # and vertex 0 is in visited
        left = max_len - depth - 1
        for d in range(1, min(used + 1, n) + 1):
            bit = 1 << (d - 1)
            target = vertex ^ bit
            if (visited >> target) & 1:
                continue
            child_need = need - 1 if vertex & bit or d > used else need + 1
            if child_need > left:
                continue
            word[depth] = d
            if d > used:
                first_vertex[d] = vertex
                first[d] = last[d] = depth
                gaps[depth] = 0
                extend(depth + 1, target, visited | 1 << target, d, g, child_need)
                continue
            prior = last[d]
            gap = depth - prior
            # no gap below g; before g is fixed only direction 1 may recur,
            # and its gap fixes g
            if gap < g or not g and d > 1:
                continue
            row = 0
            if rank_cap is not None:
                row = admit(d, vertex)
                if row is None:
                    continue
            last[d] = depth
            gaps[depth] = gap
            extend(
                depth + 1, target, visited | 1 << target, used, g or gap, child_need
            )
            last[d] = prior
            if row:
                pivots[row.bit_length() - 1] = 0
                rank -= 1

    extend(1, 1, 0b11, 1, 0, 1 + 2 * (n - 1))
    return out


# ---------------------------------------------------------------------------
# named families


FAMILY_NAMES = ("gamma-a", "gamma-b", "gamma-c", "d-series", "sharp")


@dataclass(frozen=True)
class FamilySpec:
    """A named family member: family, dimension, and its parameters."""

    name: str
    dim: int
    alpha: int | None = None
    beta: int | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dim": self.dim,
            "alpha": self.alpha,
            "beta": self.beta,
        }


def _up(a: int, b: int) -> list[int]:
    """Consecutive labels a, a+1, ..., b (empty when a > b)."""
    return list(range(a, b + 1))


def _down(a: int, b: int) -> list[int]:
    """Consecutive labels a, a-1, ..., b (empty when a < b)."""
    return list(range(a, b - 1, -1))


def family_word(spec: FamilySpec) -> DirectionWord:
    """The explicit word of a family member.

    gamma-a rises through all directions then returns in two descending
    runs split at beta (1 <= beta < dim; length 2*dim).  gamma-b splits
    the return at alpha and beta (1 <= alpha < beta < dim; length 2*dim).
    gamma-c additionally re-traverses the alpha..beta band twice more
    (length 2*dim + 2*(beta-alpha)).  d-series repeats the two lowest
    directions around one full rise and fall (length 2*dim, dim >= 3).
    sharp alternates directions 1 and 2 between full runs of the rest,
    reaching the maximal embedded length 4*(dim-1) (dim >= 4).
    """
    name, n, alpha, beta = spec.name, spec.dim, spec.alpha, spec.beta
    if name == "gamma-a":
        _require(spec, alpha is None, "takes no alpha")
        _require(spec, beta is not None and 1 <= beta < n, "needs 1 <= beta < dim")
        labels = _up(1, n) + _down(beta, 1) + _down(n, beta + 1)
    elif name == "gamma-b":
        _require(
            spec,
            alpha is not None and beta is not None and 1 <= alpha < beta < n,
            "needs 1 <= alpha < beta < dim",
        )
        labels = _up(1, n) + _down(alpha, 1) + _down(beta, alpha + 1) + _down(n, beta + 1)
    elif name == "gamma-c":
        _require(
            spec,
            alpha is not None and beta is not None and 1 <= alpha < beta < n,
            "needs 1 <= alpha < beta < dim",
        )
        labels = (
            _up(1, n)
            + _down(beta, alpha + 1)
            + _down(alpha, 1)
            + _up(alpha + 1, beta)
            + _down(n, beta + 1)
            + _down(beta, alpha + 1)
        )
    elif name == "d-series":
        _require(spec, alpha is None and beta is None, "takes no parameters")
        _require(spec, n >= 3, "needs dim >= 3")
        labels = [1, 2] + _up(3, n) + [1, 2] + _down(n, 3)
    elif name == "sharp":
        _require(spec, alpha is None and beta is None, "takes no parameters")
        _require(spec, n >= 4, "needs dim >= 4")
        half = [1] + _up(3, n) + [2] + _down(n, 3)
        labels = half * 2
    else:
        raise BadParametersError(
            f"unknown family {name!r}; choose one of {', '.join(FAMILY_NAMES)}"
        )
    word = DirectionWord(tuple(labels), n)
    validate(word)
    return word


def _require(spec: FamilySpec, condition: bool, message: str) -> None:
    if not condition:
        raise BadParametersError(f"family {spec.name} (dim {spec.dim}): {message}")


def expand_word(word: DirectionWord, new_dim: int, direction: int) -> DirectionWord:
    """Raise a loop to a higher dimension by threading the new axes
    through one direction's edges, alternating orientation.

    Every edge in the chosen direction becomes a run through the new
    axes — ascending on the first occurrence, descending on the next,
    and so on; the alternation is what keeps the walk closed and simple.
    The seed must have a pair-translation lattice of order 4 (the
    property the construction preserves and the embeddedness argument
    needs); other seeds are refused.
    """
    n = word.dim
    if new_dim <= n:
        raise BadParametersError(
            f"target dimension {new_dim} must exceed the seed dimension {n}"
        )
    if not 1 <= direction <= n:
        raise BadParametersError(
            f"threading direction {direction} out of range 1..{n}"
        )
    seed = validate(word)
    lattice = pair_translation_lattice(seed)
    if lattice.order != 4:
        raise BadParametersError(
            f"seed pair lattice has order {lattice.order}, not 4; the "
            "dimension-raising construction does not apply"
        )
    labels: list[int] = []
    ascending = True
    for lab in word.labels:
        if lab != direction:
            labels.append(lab)
            continue
        if ascending:
            labels.extend([direction] + _up(n + 1, new_dim))
        else:
            labels.extend(_down(new_dim, n + 1) + [direction])
        ascending = not ascending
    expanded = DirectionWord(tuple(labels), new_dim)
    validate(expanded)
    return expanded
