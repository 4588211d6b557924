"""Puzzle transformations and the induced maps on piece sets.

Three grid operations send standard puzzles to standard puzzles: mirroring
the columns (t1), swapping the rows (t2), and complementing every label
(t3).  On the 24-piece alphabet there are three companion bijections f1,
f2, f3, given here as explicit lookup tables:

    f1:  A_i -> A_{i+3},  B_i -> C_{i+3},  C_i -> B_{i+3},  D_i -> D_{i+3}
         (indices mod 6, representatives 1..6)
    f2:  A_i <-> D_i,  B_i <-> C_i
    f3:  swaps categories A<->D and B<->C, permuting indices by
         1->1, 2->5, 3->6, 4->4, 5->2, 6->3

Each f_i preserves the number of puzzles over a support: counting a
support and counting its image must agree, which check_invariance verifies
with two independent brute-force counts.
"""

from __future__ import annotations

from .pieces import PIECES, Puzzle, StandardPiece, Support, piece


def t1(puzzle: Puzzle) -> Puzzle:
    """Mirror left-right: reverse both rows."""
    return Puzzle(tuple(reversed(puzzle.top)), tuple(reversed(puzzle.bottom)))


def t2(puzzle: Puzzle) -> Puzzle:
    """Flip top-bottom: swap the two rows."""
    return Puzzle(puzzle.bottom, puzzle.top)


def t3(puzzle: Puzzle) -> Puzzle:
    """Complement labels: replace each label a by m+1-a (m = 2n+2)."""
    m = 2 * puzzle.n + 2
    return Puzzle(tuple(m + 1 - a for a in puzzle.top),
                  tuple(m + 1 - a for a in puzzle.bottom))


_F3_INDEX = {1: 1, 2: 5, 3: 6, 4: 4, 5: 2, 6: 3}


def _shift3(i: int) -> int:
    return (i + 2) % 6 + 1


def _build_tables() -> tuple[dict, dict, dict]:
    f1 = {}
    f2 = {}
    f3 = {}
    cat_f1 = {"A": "A", "B": "C", "C": "B", "D": "D"}
    cat_swap = {"A": "D", "B": "C", "C": "B", "D": "A"}
    for p in PIECES:
        f1[p] = piece(f"{cat_f1[p.category]}{_shift3(p.index)}")
        f2[p] = piece(f"{cat_swap[p.category]}{p.index}")
        f3[p] = piece(f"{cat_swap[p.category]}{_F3_INDEX[p.index]}")
    return f1, f2, f3


_F1_TABLE, _F2_TABLE, _F3_TABLE = _build_tables()
_TABLES = {1: _F1_TABLE, 2: _F2_TABLE, 3: _F3_TABLE}


def f_piece(map_id: int, p: StandardPiece) -> StandardPiece:
    """Image of a single piece under f1, f2 or f3."""
    return _TABLES[map_id][p]


def _apply(table: dict, support: Support) -> Support:
    return Support(frozenset(table[p] for p in support.members))


def f1(support: Support) -> Support:
    return _apply(_F1_TABLE, support)


def f2(support: Support) -> Support:
    return _apply(_F2_TABLE, support)


def f3(support: Support) -> Support:
    return _apply(_F3_TABLE, support)


def f12(support: Support) -> Support:
    """The composite f1 after f2 (an involution; maps A-sets to D-sets)."""
    return f1(f2(support))


def f123(support: Support) -> Support:
    """The composite f1 after f2 after f3."""
    return f1(f2(f3(support)))


mirror = f12  # the "opposite orientation" image used when gluing families


def _resolve_map(map_id) -> int:
    if isinstance(map_id, str):
        name = map_id.strip().lower()
        if name in ("f1", "f2", "f3"):
            return int(name[1])
        raise ValueError(f"unknown map {map_id!r}")
    if map_id in (1, 2, 3):
        return map_id
    raise ValueError(f"unknown map {map_id!r}")


#: Largest n that check_invariance enumerates.
INVARIANCE_BOUND = 4


def check_invariance(support: Support, n: int, map_id) -> bool:
    """Brute-force check that a support and its f-image count identically.

    Both sides are enumerated independently; n is capped by INVARIANCE_BOUND
    to keep the enumeration at desk scale.
    """
    from .counting import count_bruteforce

    if n > INVARIANCE_BOUND:
        raise ValueError(f"n={n} exceeds the brute-force bound {INVARIANCE_BOUND}")
    table = _TABLES[_resolve_map(map_id)]
    return count_bruteforce(support, n) == count_bruteforce(_apply(table, support), n)
