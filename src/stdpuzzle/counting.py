"""Counting supported puzzles: a rank-profile DP and brute-force enumeration.

Puzzles are built column by column.  After m columns only the relative
order of the 2m placed labels matters, and a window's piece is fixed by
four values: the previous column's (bottom, top) ranks and the new
column's.  Extending a column with ranks (u, v) among 2m labels by a new
column with ranks (u', v') among 2m+2: the old ranks shift to their
positions in {1..2m+2} minus {u', v'}, and the window (old column, new
column) must reduce to a supported piece.  `_targets` holds that
arithmetic and the window-to-piece lookup; both engines take their moves
from it (`enumerate_puzzles` re-applies only the shift, to relabel whole
rows).

The DP collapses the column-insertion tree onto the state "(u, v) =
merged ranks of the rightmost column", which is exactly the
corner-refined count table; one pass over the layers yields the whole
count prefix.  The brute-force engine walks the unmerged tree (and can
materialize the puzzles); it shares the kernel, so the definition-level
check of both is the `reduce_window` filter in the tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Mapping

from .pieces import _PATTERN_ORDINAL, Puzzle, Support

#: Ceiling for exhaustive enumeration; the tree has up to (2n+2)!/2 leaves.
BRUTE_FORCE_BOUND = 5


def _check_brute_bound(n: int, bound: int) -> None:
    if n < 1:
        raise ValueError("puzzles need n >= 1 pieces")
    if n > bound:
        raise ValueError(f"n={n} exceeds the brute-force bound {bound}")


def _targets(u: int, v: int, m: int, mask: int) -> list[tuple[int, int]]:
    """Rank pairs over 2m+2 labels that the column (u, v) over 2m labels
    may move to, i.e. whose window reduces to a piece in the mask."""
    pattern = _PATTERN_ORDINAL
    size = 2 * m + 2
    out = []
    for u2 in range(1, size + 1):
        for v2 in range(1, size + 1):
            if v2 == u2:
                continue
            if u2 < v2:
                lo, hi1 = u2, v2 - 1
            else:
                lo, hi1 = v2, u2 - 1
            au = u + (u >= lo) + (u >= hi1)
            av = v + (v >= lo) + (v >= hi1)
            # window: TL = av, TR = v2, BL = au, BR = u2
            key = ((av > v2) << 5 | (av > au) << 4 | (av > u2) << 3
                   | (v2 > au) << 2 | (v2 > u2) << 1 | (au > u2))
            if mask >> pattern[key] & 1:
                out.append((u2, v2))
    return out


def _layers(mask: int) -> Iterator[Mapping[tuple[int, int], int]]:
    """Corner-count tables after m = 1, 2, ... columns, each built from
    the one before."""
    layer: Mapping[tuple[int, int], int] = {(1, 2): 1, (2, 1): 1}
    for m in count(1):
        yield layer
        out: dict[tuple[int, int], int] = defaultdict(int)
        for (u, v), cnt in layer.items():
            for target in _targets(u, v, m, mask):
                out[target] += cnt
        layer = out


@dataclass(frozen=True)
class CornerTable:
    """Counts of m-column puzzles refined by the last column's rank pair.

    entries[(u, v)] counts puzzles whose bottom-right label has rank u and
    top-right label rank v among all 2m labels.
    """

    columns: int
    entries: Mapping[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.entries.values())

    def bottom_sum(self, x: int) -> int:
        self._check_rank(x)
        return sum(c for (u, _), c in self.entries.items() if u == x)

    def top_sum(self, x: int) -> int:
        self._check_rank(x)
        return sum(c for (_, v), c in self.entries.items() if v == x)

    def _check_rank(self, x: int) -> None:
        if not 1 <= x <= 2 * self.columns:
            raise ValueError(f"rank {x} out of range 1..{2 * self.columns}")


def corner_table(support: Support, m: int) -> CornerTable:
    """The DP table after m columns (m-1 pieces)."""
    if m < 1:
        raise ValueError("corner_table needs m >= 1")
    last = next(islice(_layers(support.mask), m - 1, None))
    return CornerTable(m, dict(last))


def count_prefix(support: Support, nmax: int) -> list[int]:
    """Counts of supported n-puzzles for n = 1..nmax, from one DP pass."""
    if nmax < 1:
        raise ValueError("puzzles need n >= 1 pieces")
    return [sum(layer.values())
            for layer in islice(_layers(support.mask), 1, nmax + 1)]


def count_dp(support: Support, n: int) -> int:
    """Number of standard n-puzzles supported by `support`, via the rank DP."""
    return count_prefix(support, n)[-1]


def count_corner_bottom(support: Support, n: int, x: int) -> int:
    """Puzzles with label x in the bottom-right corner."""
    return corner_table(support, n + 1).bottom_sum(x)


def count_corner_top(support: Support, n: int, x: int) -> int:
    """Puzzles with label x in the top-right corner."""
    return corner_table(support, n + 1).top_sum(x)


def count_bruteforce(support: Support, n: int, bound: int = BRUTE_FORCE_BOUND) -> int:
    """Ground-truth count by walking the whole column-insertion tree.

    No state merging: every supported puzzle corresponds to one root-leaf
    path (the final level is summed in place rather than materialized).
    """
    _check_brute_bound(n, bound)
    mask = support.mask
    # Move lists for the states reachable at each column count.
    allowed = {}
    states = {(1, 2), (2, 1)}
    for m in range(1, n + 1):
        allowed[m] = {(u, v): _targets(u, v, m, mask) for u, v in states}
        states = {t for targets in allowed[m].values() for t in targets}
    last = allowed[n]

    def rec(u: int, v: int, m: int) -> int:
        if m == n:
            return len(last[(u, v)])
        total = 0
        nxt = m + 1
        for u2, v2 in allowed[m][(u, v)]:
            total += rec(u2, v2, nxt)
        return total

    return rec(1, 2, 1) + rec(2, 1, 1)


def _gen(top: tuple[int, ...], bottom: tuple[int, ...], n: int,
         mask: int) -> Iterator[Puzzle]:
    m = len(top)
    if m == n + 1:
        yield Puzzle(top, bottom)
        return
    u, v = bottom[-1], top[-1]
    for u2, v2 in _targets(u, v, m, mask):
        lo, hi1 = (u2, v2 - 1) if u2 < v2 else (v2, u2 - 1)
        yield from _gen(
            tuple(x + (x >= lo) + (x >= hi1) for x in top) + (v2,),
            tuple(y + (y >= lo) + (y >= hi1) for y in bottom) + (u2,),
            n, mask)


def enumerate_puzzles(support: Support, n: int,
                      bound: int = BRUTE_FORCE_BOUND) -> list[Puzzle]:
    """All supported n-puzzles, sorted lexicographically by (bottom, top)."""
    _check_brute_bound(n, bound)
    mask = support.mask
    found = list(_gen((2,), (1,), n, mask))
    found.extend(_gen((1,), (2,), n, mask))
    found.sort(key=lambda p: (p.bottom, p.top))
    return found
