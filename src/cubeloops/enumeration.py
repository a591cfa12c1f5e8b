"""Search and generation of loop classes: exhaustive census and named families.

The census walks the cube graph depth-first from a fixed corner with the
first edge direction pinned and new direction labels introduced in
increasing order — a partial symmetry reduction that keeps the search
complete while shrinking it by roughly a factor of 2m * n!.  Full
deduplication happens afterwards through canonical forms, so every class
is reported exactly once no matter how many representatives the walk
finds.  Pruning uses exact necessities only: the walk must be able to get
home within budget (each odd-count direction needs another edge, each
unused direction two), revisits are forbidden, and the embedded-only mode
adds the four-edges-per-direction ceiling (even dimension) and the
dimension-specific length caps.

The named families reproduce the known infinite series of embedded
loops — three two-parameter families, the sharp maximal-length family,
and the low-lattice series — together with the dimension-raising operator
that threads new axes through one direction of a seed loop, alternating
orientation edge by edge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Any

from .errors import BadParametersError
from .paths import CanonicalWord, DirectionWord, canonicalize, validate
from .verdict import SurfaceReport, build_report, decide_embedded, embedded_length_cap

__all__ = [
    "EnumerationQuery",
    "FamilySpec",
    "FAMILY_NAMES",
    "enumerate_paths",
    "family_word",
    "expand_word",
    "series_check",
]

_SHARD_DEPTH = 3


@dataclass(frozen=True)
class EnumerationQuery:
    """A resolved census request: dimension, even length window, filters."""

    dim: int
    min_length: int
    max_length: int
    embedded_only: bool = False
    limit: int | None = None
    first_direction: int = 1

    @classmethod
    def create(
        cls,
        dim: int,
        length: int | None = None,
        min_length: int | None = None,
        max_length: int | None = None,
        embedded_only: bool = False,
        limit: int | None = None,
        first_direction: int = 1,
    ) -> "EnumerationQuery":
        """Normalize a request: exact length wins over a range; open range
        ends clamp to the feasible window [2*dim, 2**dim] (tightened by the
        embedded-length caps when filtering to embedded classes)."""
        if dim < 2:
            raise ValueError(f"dimension must be at least 2, not {dim}")
        if not 1 <= first_direction <= dim:
            raise ValueError(f"first direction {first_direction} out of range 1..{dim}")
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
        return cls(dim, lo, hi, embedded_only, limit, first_direction)


def enumerate_paths(
    query: EnumerationQuery, jobs: int = 1
) -> tuple[CanonicalWord, ...]:
    """All loop classes matching the query, one canonical word per class.

    Deterministic output sorted by (length, word), independent of the
    worker count: shards are merged as a set union before sorting.
    """
    if query.min_length > query.max_length:
        return ()
    if jobs <= 1:
        raw = _search(query, prefix=())
    else:
        prefixes = _prefixes(query)
        workers = min(jobs, os.cpu_count() or 1, len(prefixes))
        with Pool(processes=workers) as pool:
            chunks = pool.map(
                _shard_worker, [(query, prefix) for prefix in prefixes]
            )
        raw = [word for chunk in chunks for word in chunk]
    classes = {canonicalize(DirectionWord(word, query.dim)).labels for word in raw}
    ordered = sorted(classes, key=lambda labels: (len(labels), labels))
    result = [CanonicalWord(labels, query.dim) for labels in ordered]
    if query.embedded_only:
        result = [
            word
            for word in result
            if decide_embedded(validate(word)).embedded
        ]
    if query.limit is not None:
        result = result[: query.limit]
    return tuple(result)


def _shard_worker(args: tuple[EnumerationQuery, tuple[int, ...]]) -> list[tuple[int, ...]]:
    query, prefix = args
    return _search(query, prefix)


def _prefixes(query: EnumerationQuery) -> list[tuple[int, ...]]:
    return _search(query, prefix=(), stop_depth=_SHARD_DEPTH)


def _search(
    query: EnumerationQuery,
    prefix: tuple[int, ...],
    stop_depth: int | None = None,
) -> list[tuple[int, ...]]:
    """Depth-first walk collecting closed words (or, with ``stop_depth``,
    the open partial words of exactly that length, for sharding)."""
    n = query.dim
    max_len = query.max_length
    min_len = query.min_length
    per_direction_cap = query.embedded_only and n % 2 == 0
    out: list[tuple[int, ...]] = []

    # replay the mandatory first edge plus any shard prefix
    word = [query.first_direction]
    if prefix:
        assert prefix[0] == query.first_direction
        word = list(prefix)
    vertex = 0
    visited = 0
    counts = [0] * (n + 1)
    used_mask = 0
    for lab in word:
        visited |= 1 << vertex
        vertex ^= 1 << (lab - 1)
        counts[lab] += 1
        used_mask |= 1 << lab

    def used_count() -> int:
        return used_mask.bit_count()

    def step(d: int, depth: int) -> None:
        nonlocal vertex, visited, used_mask
        target = vertex ^ (1 << (d - 1))
        if target == 0:
            # the closing edge always revisits direction d (its count must
            # already be odd), so coverage needs only the mask check
            if (
                stop_depth is None
                and used_mask == (2 << n) - 2
                and min_len <= depth + 1 <= max_len
            ):
                out.append(tuple(word + [d]))
            return
        if (visited >> target) & 1:
            return
        if per_direction_cap and counts[d] >= 4:
            return
        counts[d] += 1
        prior_mask = used_mask
        used_mask |= 1 << d
        word.append(d)
        visited |= 1 << vertex
        prior_vertex = vertex
        vertex = target
        if stop_depth is not None and depth + 1 == stop_depth:
            out.append(tuple(word))
        else:
            extend(depth + 1)
        vertex = prior_vertex
        visited &= ~(1 << vertex)
        word.pop()
        used_mask = prior_mask
        counts[d] -= 1

    def extend(depth: int) -> None:
        remaining = max_len - depth
        # exact lower bound on edges still needed: one per odd-count
        # direction (equivalently the Hamming distance home) plus two per
        # direction never used
        need = vertex.bit_count() + 2 * (n - used_count())
        if need > remaining:
            return
        lowest_unused = next(
            (d for d in range(1, n + 1) if not (used_mask >> d) & 1), None
        )
        for d in range(1, n + 1):
            if (used_mask >> d) & 1 or d == lowest_unused:
                step(d, depth)

    if stop_depth is not None and len(word) >= stop_depth:
        return [tuple(word[:stop_depth])]
    extend(len(word))
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
    from .lattice import pair_translation_lattice

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


def series_check(max_n: int) -> list[tuple[str, DirectionWord, SurfaceReport]]:
    """Reports for every family member with dimension up to ``max_n``,
    plus the dimension-raised low-lattice seed as an operator check."""
    if max_n < 4:
        raise ValueError(f"max_n must be at least 4, not {max_n}")
    rows: list[tuple[str, DirectionWord, SurfaceReport]] = []

    def add(label: str, spec: FamilySpec) -> None:
        word = family_word(spec)
        rows.append((label, word, build_report(word, family=spec.to_json_dict())))

    for n in range(3, max_n + 1):
        add(f"d-series n={n}", FamilySpec("d-series", n))
    for n in range(4, max_n + 1):
        for beta in range(1, n):
            add(f"gamma-a n={n} beta={beta}", FamilySpec("gamma-a", n, beta=beta))
        for alpha in range(1, n):
            for beta in range(alpha + 1, n):
                add(
                    f"gamma-b n={n} alpha={alpha} beta={beta}",
                    FamilySpec("gamma-b", n, alpha, beta),
                )
                add(
                    f"gamma-c n={n} alpha={alpha} beta={beta}",
                    FamilySpec("gamma-c", n, alpha, beta),
                )
        add(f"sharp n={n}", FamilySpec("sharp", n))
    seed = family_word(FamilySpec("d-series", 3))
    for n in range(4, max_n + 1):
        word = expand_word(seed, n, 3)
        rows.append(
            (
                f"raised d-series seed to n={n}",
                word,
                build_report(word),
            )
        )
    return rows
