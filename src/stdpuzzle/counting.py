"""Counting supported puzzles: a rank-pair DP and brute-force enumeration.

Puzzles are built column by column.  After m columns only the relative
order of the 2m placed labels matters, so the state is (u, v), the ranks
of the bottom-right and top-right labels.  A new column (u', v') over
2m+2 labels shifts every old rank r to its position in {1..2m+2} minus
{u', v'}, and the window (old column, new column) must reduce to a
supported piece.

Zones.  With lo = min(u', v') and hi = max(u', v'), an old rank r lies in
zone 0 (r < lo), zone 1 (lo <= r < hi-1) or zone 2 (r >= hi-1), and the
shift adds exactly the zone number to r.  The window's piece is therefore
fixed by the class (zone of u, zone of v, u < v, u' < v').  Of the 36
classes 24 occur, and each of the 24 pieces is exactly one class.
`_PIECE_RECTANGLES`, built once at import by reducing the window on
representative ranks of every class with `reduce_window`, holds each
piece's class as a rectangle.

Layers.  The DP keeps the corner-count table of each column count.  A
new cell (u', v') collects every old state whose class is a piece of the
support, and a class is a rectangle of old states (zone x zone) within
one half of the table (u < v or u > v).  With a 2D prefix sum of each
half, a rectangle is four lookups at the cuts 0, lo-1, hi-2, 2m, and the
rectangles of one orientation collapse to at most 18 signed lookups
(`_corner_terms`).  A layer thus costs O(m^2) additions of big integers
where the per-state scan cost O(m^4); it is the 2D form of the
boustrophedon recurrence behind Entringer numbers.  One pass over the
layers yields the whole count prefix, and once a layer is empty every
later one is too.

The brute-force engine sums the paths through its own moves layer by
layer (and walks them to materialize the puzzles).  `_moves` builds the
moves once per (m, reachable state): it relabels the old column into the
new label set and asks `reduce_window` whether the window is a supported
piece.  It never reads the rectangle table, so the two engines share only
`Support` and the piece definitions; the definition-level check of both
is the `reduce_window` filter over every grid filling in the tests.
"""

from __future__ import annotations

from itertools import accumulate, count, islice
from operator import add
from typing import Iterator, Mapping, NamedTuple

from .pieces import Puzzle, Support, reduce_window

#: Ceiling for the brute force, set by the listing walk and the cost of `_moves`.
BRUTE_FORCE_BOUND = 5

#: Ceiling on the number of puzzles `enumerate_puzzles` holds and sorts.
LISTING_BOUND = 10 ** 6


def _piece_rectangles() -> list[tuple[bool, dict[tuple[int, int, int], int]]]:
    """rows[p] = (up, {(half, i, j): sign}): the orientation u' < v' of the
    one class whose windows reduce to piece p, and the inclusion-exclusion
    terms of its rectangle at the cuts (0, lo-1, hi-2, 2m); terms at cut 0
    vanish and are dropped.  Representatives: the new pair (3, 6) or (6, 3)
    over 8 labels, where the old ranks 1..6 fill zones 0, 1, 2 two apiece."""
    rows: list = [None] * 24
    for u2, v2 in ((3, 6), (6, 3)):
        for u in range(1, 7):
            for v in range(1, 7):
                if u == v:
                    continue
                zu, zv = (u >= 3) + (u >= 5), (v >= 3) + (v >= 5)
                # window: TL = shifted v, TR = v2, BL = shifted u, BR = u2
                p = reduce_window(v + zv, v2, u + zu, u2).ordinal
                rows[p] = (u2 < v2, {(u < v, i, j): sign for i, j, sign in (
                    (zu + 1, zv + 1, 1), (zu, zv + 1, -1),
                    (zu + 1, zv, -1), (zu, zv, 1)) if i and j})
    return rows


_PIECE_RECTANGLES = _piece_rectangles()


def _corner_terms(mask: int, up: bool) -> list[tuple[int, int, int, int]]:
    """The rectangles of the mask's pieces of orientation `up`, merged into
    terms (coef, half, i, j): the new cell is the sum of
    coef * P[half][cut i][cut j] over the prefix sums P of the two halves."""
    coefs: dict[tuple[int, int, int], int] = {}
    for p, (p_up, terms) in enumerate(_PIECE_RECTANGLES):
        if p_up == up and mask >> p & 1:
            for key, sign in terms.items():
                coefs[key] = coefs.get(key, 0) + sign
    return [(c, half, i, j) for (half, i, j), c in coefs.items() if c]


def _prefix_sums(layer: Mapping[tuple[int, int], int],
                 size: int) -> list[list[list[int]]]:
    """P[half][i][j]: the sum of layer[u, v] over u <= i, v <= j, with
    half 1 holding the u < v states and half 0 the u > v ones."""
    grids = [[[0] * (size + 1) for _ in range(size + 1)] for _ in (0, 1)]
    for (u, v), cnt in layer.items():
        grids[u < v][u][v] = cnt
    for grid in grids:
        for i in range(1, size + 1):
            grid[i] = list(map(add, grid[i - 1], accumulate(grid[i])))
    return grids


def _layers(mask: int) -> Iterator[Mapping[tuple[int, int], int]]:
    """Corner-count tables after m = 1, 2, ... columns, each built from
    the one before; only positive counts are stored."""
    orientations = [(up, _corner_terms(mask, up)) for up in (True, False)]
    layer: Mapping[tuple[int, int], int] = {(1, 2): 1, (2, 1): 1}
    for m in count(1):
        yield layer
        if not layer:
            continue  # a dead support stays dead
        size = 2 * m
        sums = _prefix_sums(layer, size)
        out: dict[tuple[int, int], int] = {}
        for lo in range(1, size + 2):
            for hi in range(lo + 1, size + 3):
                cuts = (0, lo - 1, hi - 2, size)
                for up, terms in orientations:
                    cell = 0
                    for coef, half, i, j in terms:
                        cell += coef * sums[half][cuts[i]][cuts[j]]
                    if cell:
                        out[(lo, hi) if up else (hi, lo)] = cell
        layer = out


class CornerTable(NamedTuple):
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
    """Counts of supported n-puzzles for n = 1..nmax, from one DP pass.

    Nothing is cached: each call runs the DP afresh on `support.mask`.
    """
    if nmax < 1:
        raise ValueError("puzzles need n >= 1 pieces")
    return [sum(layer.values())
            for layer in islice(_layers(support.mask), 1, nmax + 1)]


def count_dp(support: Support, n: int) -> int:
    """Number of standard n-puzzles supported by `support`, via the rank DP."""
    return count_prefix(support, n)[-1]


def _puzzle_table(support: Support, n: int) -> CornerTable:
    """The corner table of the supported n-puzzles (n + 1 columns)."""
    if n < 1:
        raise ValueError("puzzles need n >= 1 pieces")
    return corner_table(support, n + 1)


def count_corner_bottom(support: Support, n: int, x: int) -> int:
    """Puzzles with label x in the bottom-right corner."""
    return _puzzle_table(support, n).bottom_sum(x)


def count_corner_top(support: Support, n: int, x: int) -> int:
    """Puzzles with label x in the top-right corner."""
    return _puzzle_table(support, n).top_sum(x)


def _relabel(u2: int, v2: int, size: int) -> list[int]:
    """new[r - 1]: the label over 1..size that old rank r takes when the
    column (u2, v2) joins, i.e. the r-th of 1..size without u2 and v2."""
    return [r for r in range(1, size + 1) if r != u2 and r != v2]


def _moves(support: Support, n: int) -> list[dict]:
    """moves[m][(u, v)]: the columns (u', v') over 2m+2 labels that may
    follow the column (u, v) over 2m labels, for m = 1..n and the states
    reachable after m columns.  Each move is checked by `reduce_window`
    on the relabelled window, not by the DP's rectangle table."""
    if n < 1:
        raise ValueError("puzzles need n >= 1 pieces")
    if n > BRUTE_FORCE_BOUND:
        raise ValueError(f"n={n} exceeds the brute-force bound {BRUTE_FORCE_BOUND}")
    mask = support.mask
    moves: list[dict] = [{}]
    states = {(1, 2), (2, 1)}
    for m in range(1, n + 1):
        size = 2 * m + 2
        layer = {state: [] for state in states}
        for u2 in range(1, size + 1):
            for v2 in range(1, size + 1):
                if u2 == v2:
                    continue
                new = _relabel(u2, v2, size)
                for (u, v), targets in layer.items():
                    # window: TL = old top, TR = v2, BL = old bottom, BR = u2
                    if mask >> reduce_window(new[v - 1], v2, new[u - 1], u2).ordinal & 1:
                        targets.append((u2, v2))
        moves.append(layer)
        states = {t for targets in layer.values() for t in targets}
    return moves


def _count_paths(moves: list[dict]) -> int:
    """Paths through `moves`, summed per reachable state layer by layer."""
    paths = {(1, 2): 1, (2, 1): 1}
    for layer in moves[1:]:
        nxt: dict[tuple[int, int], int] = {}
        for state, cnt in paths.items():
            for target in layer[state]:
                nxt[target] = nxt.get(target, 0) + cnt
        paths = nxt
    return sum(paths.values())


def count_bruteforce(support: Support, n: int) -> int:
    """Ground-truth count: the paths through the `reduce_window` moves."""
    return _count_paths(_moves(support, n))


def _gen(top: tuple[int, ...], bottom: tuple[int, ...], n: int,
         moves: list[dict]) -> Iterator[Puzzle]:
    m = len(top)
    if m == n + 1:
        yield Puzzle(top, bottom)
        return
    for u2, v2 in moves[m][bottom[-1], top[-1]]:
        new = _relabel(u2, v2, 2 * m + 2)
        yield from _gen(tuple(new[x - 1] for x in top) + (v2,),
                        tuple(new[y - 1] for y in bottom) + (u2,), n, moves)


def enumerate_puzzles(support: Support, n: int) -> list[Puzzle]:
    """All supported n-puzzles, sorted lexicographically by (bottom, top).

    The listing is held in memory, so it is refused (ValueError) when the
    brute-force moves give more than LISTING_BOUND puzzles.
    """
    moves = _moves(support, n)
    total = _count_paths(moves)
    if total > LISTING_BOUND:
        raise ValueError(f"{total} puzzles exceed the listing bound "
                         f"{LISTING_BOUND}")
    found = list(_gen((2,), (1,), n, moves))
    found.extend(_gen((1,), (2,), n, moves))
    found.sort(key=lambda p: (p.bottom, p.top))
    return found
