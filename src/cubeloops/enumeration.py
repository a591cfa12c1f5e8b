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
mode adds a lattice-rank cut whose closing test is the embedded verdict.

Every child is checked before it is entered.  The home-distance bound
``need`` is the one above, one edge per odd-count direction plus two per
unused direction, kept per child instead of recomputed: it falls by one
for the next new direction and for a used direction whose vertex bit is
set, and rises by one for a used direction whose bit is clear.  A child
whose bound exceeds the edges left is never called.  The cut is exact:
it is the bound a child would test on entry, tested one level earlier.

The walk is rooted at a smallest gap.  A gap is the cyclic distance from
an edge back to the previous edge in the same direction, and the repeat
profile lists the gaps in word order.  :func:`canonicalize` takes the
least profile over all rotations of the word and of its reversal.  They
rearrange one multiset, so the canonical word C of length m
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
``oracles.is_canonical``), which compares that profile with the profiles
of the rotations of C and of its reversal that start with gap g,
stopping at the first smaller one.  No labels are compared: position i's
previous same-direction edge is i - p[i] (mod m), so the profile p fixes
the direction classes, and the first-occurrence relabelling, which
numbers the classes by their first positions, depends on the classes
alone.  Two rotations with equal profiles therefore have equal relabelled
words, and the least profile decides the canonical form.  The walk keeps
no labels: only a kept walk builds C, from its profile alone
(``paths._word_from_profile``).
The result is exact both ways.  A canonical C yields a W that passes
every cut, because each cut is a necessity for it.  A kept W yields a
canonical C, and C fixes g and hence W, so each class is emitted once.
For the full census of dimension 5 up to 14 edges the walk makes 18,496
calls, 6,903 closed walks reach ``_is_least_rotation`` and 1,494 are kept
(dimension 6 up to 14 edges: 13,490 comparisons, 3,516 kept).  The
complete embedded censuses of dimensions 5, 7 and 9 make 9, 18 and 31
comparisons and keep 8, 16 and 27 classes.

The embedded-only walk keeps the prefix's even-lattice rows as a GF(2)
echelon basis, pushed and popped with the walk: the pair row
``(v_i ^ v_first(d)) & ~bit(d)`` of every edge after its direction's
first and, in odd dimension, the direction-product row
``XOR_e v_first(e) & ~bit(e)`` (``lattice.even_lattice_from_pair``).  A
pair row depends only on its edge and its direction's first edge, and the
product row only on each direction's first edge; directions first occur
in increasing order, so the product row is fixed, and joins the basis,
when direction n first occurs.  The basis therefore spans a subgroup of
the finished loop's even lattice, and its rank never falls as the word
grows.  The surface is embedded exactly when that
lattice has order 4 (even dimension) or 8 (odd), that is rank 2 or 3, so
a branch that would pass that rank has no embedded completion, canonical
or not, and is cut.  At a closing edge the basis holds every row but the
closing edge's pair row, and the walk is kept only when the rank plus
that row's contribution (0 or 1) reaches the cap.

That test is ``verdict.decide_embedded``'s verdict on C, so it replaces
a filter run after the search; a listing of the kept classes reads each
one's walk once more, into a ``JordanPath`` whose rows give the lattice
of its genus or its report.  The even lattice does not depend on where
the word starts.  The pair rows of direction d span
``(v_i ^ v_j) & ~bit(d)`` for any two of its edges i and j, the sum of
their rows, and no translation of the vertices changes that row.
Taking another edge as a direction's first changes the product row by a
pair row.  Translating every vertex by t changes the product row by
``t & ~bit(e)`` summed over all n directions e, where each bit of t
occurs n - 1 times, an even number in odd dimension.  Relabelling
permutes the coordinates of every row and keeps the rank.  So W and C,
which differ by a rotation and a relabelling, have even lattices of one
rank.

The rank cap also bounds each direction's edges: two direction-d edges
with equal pair rows are the same cube edge, so a direction has at most 4
edges (even dimension) or 8 (odd).  An embedded loop of odd dimension n
therefore has at most 8n edges, the proven end of the odd embedded census
window; the even window ends at the 4(n - 1) of ``verdict.edge_bound``.

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
from itertools import count
from typing import NamedTuple

from .errors import BadParametersError
from .lattice import pair_translation_lattice
from .paths import (
    DirectionWord,
    _is_least_rotation,
    _word_from_profile,
    validate,
)

__all__ = [
    "MAX_CENSUS_LENGTH",
    "EnumerationQuery",
    "FamilySpec",
    "FAMILY_NAMES",
    "enumerate_paths",
    "family_word",
    "expand_word",
]

# The walk recurses once per edge, so a window must end well under
# CPython's default recursion limit of 1000.  512 = 2^9 admits every window
# up to dimension 9 and every window the tests and the benchmark use; an
# open window in dimension 10 or more is refused before any work instead of
# failing deep in the walk.
MAX_CENSUS_LENGTH = 512


class EnumerationQuery(NamedTuple):
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
        ends clamp to the feasible window [2*dim, 2**dim].  Filtering to
        embedded classes tightens the end to the proven embedded lengths:
        4*(dim-1) in even dimension, and 8*dim, eight edges per direction,
        in odd (module docstring).  Raises ValueError for a nonempty window
        whose end is the open 2**dim, or an exact ``length``, when that
        passes ``MAX_CENSUS_LENGTH``."""
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, not {dim}")
        lo = 2 * dim
        end = None  # the requested end; None for the open end 2**dim
        if length is not None:
            if min_length is not None or max_length is not None:
                raise ValueError("give either an exact length or a range, not both")
            if length % 2 or length < lo or not _fits_the_cube(length, dim):
                raise ValueError(
                    f"length must be even and within [{lo}, 2**{dim}] "
                    f"for dimension {dim}, not {length}"
                )
            lo = end = length
        else:
            if min_length is not None:
                lo = max(lo, min_length + (min_length % 2))
            if max_length is not None:
                end = max_length - (max_length % 2)
        if embedded_only:
            # lo > hi: no embedded class
            cap = 4 * (dim - 1) if dim % 2 == 0 else 8 * dim
            end = cap if end is None else min(end, cap)
        if end is not None and _fits_the_cube(end, dim):
            hi = end
        elif _fits_the_cube(MAX_CENSUS_LENGTH + 1, dim) and _fits_the_cube(lo, dim):
            # a nonempty window up to 2**dim, past the walk's limit: refused
            # without building that power, which has dim bits
            raise ValueError(
                f"a census window up to 2**{dim} edges exceeds the walk's "
                f"limit of {MAX_CENSUS_LENGTH}; give a smaller --max-length"
            )
        else:
            hi = 1 << dim  # at most MAX_CENSUS_LENGTH, or below lo
        if length is not None and MAX_CENSUS_LENGTH < lo <= hi:
            # refused here, where the request is known to name one length
            raise ValueError(
                f"a census window up to {length} edges exceeds the walk's "
                f"limit of {MAX_CENSUS_LENGTH}; give a smaller --length"
            )
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be nonnegative, not {limit}")
        return cls(dim, lo, hi, embedded_only, limit)


def _fits_the_cube(edges: int, dim: int) -> bool:
    """Whether ``edges <= 2**dim``, the cube's vertex count, decided without
    building that power, which has ``dim`` bits."""
    return edges < 1 or (edges - 1).bit_length() <= dim


def enumerate_paths(
    query: EnumerationQuery, jobs: int = 1
) -> tuple[DirectionWord, ...]:
    """All loop classes matching the query, one canonical word per class.

    Deterministic output sorted by (length, word), independent of the
    worker count: the search emits each class once, so ``jobs`` shards
    (at most the CPU count) split its subtrees and the parent merges them.
    Raises ValueError when ``jobs`` is below 1, when the dimension is
    below 2 or the limit negative (a query built without
    :meth:`EnumerationQuery.create`), or when a nonempty window ends above
    ``MAX_CENSUS_LENGTH`` edges.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if query.dim < 2:
        raise ValueError(f"dimension must be at least 2, not {query.dim}")
    if query.limit is not None and query.limit < 0:
        raise ValueError(f"limit must be nonnegative, not {query.limit}")
    if query.min_length > query.max_length:
        return ()
    if query.max_length > MAX_CENSUS_LENGTH:
        raise ValueError(
            f"a census window up to {query.max_length} edges exceeds the walk's "
            f"limit of {MAX_CENSUS_LENGTH}; give a smaller --max-length"
        )
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
) -> list[DirectionWord]:
    """Depth-first walk emitting the canonical word of every class the
    query admits, each once; with ``shards`` > 1, only those in the
    ``shard``-th share of the subtrees (module docstring)."""
    n = query.dim
    max_len = query.max_length
    min_len = query.min_length
    # the split depth of the module docstring (never reached unsharded)
    split_depth = n + 1 if shards > 1 else -1
    subtrees = count()
    out: list[DirectionWord] = []

    # embedded-only cut (module docstring): the prefix's even-lattice
    # echelon basis, pivots[k] holding the row whose leading bit is k; in
    # odd dimension the direction-product row joins it when direction n
    # first occurs
    rank_cap = (2 if n % 2 == 0 else 3) if query.embedded_only else None
    first_vertex = [0] * (n + 1)
    pivots = [0] * n
    rank = 0

    def residue(row: int) -> int:
        """The row reduced modulo the basis (0 when it is already spanned)."""
        while row:
            pivot = pivots[row.bit_length() - 1]
            if not pivot:
                break
            row ^= pivot
        return row

    def admit(row: int) -> int | None:
        """Add the row to the basis: the pivot row added (0 if the row is
        already spanned), or None when the rank would pass the cap."""
        nonlocal rank
        row = residue(row)
        if row:
            if rank == rank_cap:
                return None
            pivots[row.bit_length() - 1] = row
            rank += 1
        return row

    # the prefix's repeat profile (module docstring): gaps[i] for
    # i < depth, and first[d], last[d] for the used directions; the first
    # edge leaves the base vertex 0 in direction 1
    gaps = [0] * max_len
    first = [0] * (n + 1)
    last = [0] * (n + 1)

    # the prefix's vertices, the base and the first edge's end included;
    # a child's vertex is added before its call and discarded after it
    visited = {0, 1}
    visit, leave = visited.add, visited.discard
    # the children's (direction, bit) pairs once directions 1..used occur:
    # the used directions and, below n, the next new one
    children = [
        [(d, 1 << (d - 1)) for d in range(1, min(used + 1, n) + 1)]
        for used in range(n + 1)
    ]

    def extend(depth: int, vertex: int, used: int, g: int, need: int) -> None:
        """Grow the prefix of ``depth`` edges ending at ``vertex``, which is
        in ``visited``: directions 1..``used`` occur, ``g`` is the smallest
        gap (0 until direction 1 recurs) and ``need`` the edges still needed
        to get home."""
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
            # first[e] = e - 1, can wrap below g; an embedded-only walk
            # closes with its even lattice at full rank (vertex is bit d, so
            # the closing pair row is first_vertex[d] & ~vertex)
            closes = depth - prior >= g
            if closes:
                home = m - g
                for e in range(1, g + 1):
                    if last[e] - e >= home:
                        closes = False
                        break
            if closes and (
                rank_cap is None
                or rank + bool(residue(first_vertex[d] & ~vertex)) == rank_cap
            ):
                # the canonical candidate's profile: W's, with position i
                # at i - g (mod m), so that it starts at W's smallest gap g;
                # its word is built only once that profile has won
                rotated = gaps[g:depth]
                rotated.append(depth - prior)
                rotated += gaps[:g]
                for e in range(1, n + 1):
                    rotated[first[e] - g] = m - last[e] + first[e]
                profile = tuple(rotated)
                if _is_least_rotation(profile):
                    out.append(DirectionWord(_word_from_profile(profile), n))
            last[d] = prior
        # edges left after the child's; the closing edge is handled above,
        # and vertex 0 is in visited, so a child needs at least one edge
        left = max_len - depth - 1
        if not left:
            return
        for d, bit in children[used]:
            target = vertex ^ bit
            if target in visited:
                continue
            child_need = need - 1 if vertex & bit or d > used else need + 1
            if child_need > left:
                continue
            prior = last[d]
            if d > used:
                # the last child: it introduces direction d = used + 1
                first_vertex[d] = vertex
                first[d] = depth
                used = d
                gap = row = 0
                if d == n and rank_cap == 3:
                    for e in range(1, n + 1):
                        row ^= first_vertex[e] & ~(1 << e - 1)
            else:
                gap = depth - prior
                # no gap below g; before g is fixed only direction 1 may
                # recur, and its gap fixes g
                if gap < g or not g and d > 1:
                    continue
                row = (vertex ^ first_vertex[d]) & ~bit
            pivot = 0
            if rank_cap is not None:
                pivot = admit(row)
                if pivot is None:
                    continue
            last[d] = depth
            gaps[depth] = gap
            visit(target)
            extend(depth + 1, target, used, g or gap, child_need)
            leave(target)
            last[d] = prior
            if pivot:
                pivots[pivot.bit_length() - 1] = 0
                rank -= 1

    extend(1, 1, 1, 0, 1 + 2 * (n - 1))
    return out


# ---------------------------------------------------------------------------
# named families


FAMILY_NAMES = ("gamma-a", "gamma-b", "gamma-c", "d-series", "sharp")


class FamilySpec(NamedTuple):
    """A named family member: family, dimension, and its parameters."""

    name: str
    dim: int
    alpha: int | None = None
    beta: int | None = None


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

    The word is not validated here: every report of it validates it, and
    a caller who needs the vertex trail calls :func:`validate`.
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
    return DirectionWord(tuple(labels), n)


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
