"""Puzzle transformations and the induced maps on piece sets.

Three grid operations send standard puzzles to standard puzzles: mirroring
the columns (t1), swapping the rows (t2), and complementing every label
(t3).  On the 24-piece alphabet there are three companion bijections f1,
f2, f3, given here as permutations of the piece ordinals:

    f1:  A_i -> A_{i+3},  B_i -> C_{i+3},  C_i -> B_{i+3},  D_i -> D_{i+3}
         (indices mod 6, representatives 1..6)
    f2:  A_i <-> D_i,  B_i <-> C_i
    f3:  swaps categories A<->D and B<->C, permuting indices by
         1->1, 2->5, 3->6, 4->4, 5->2, 6->3

Each f_i preserves the number of puzzles over a support: a support and
its image count alike, which the flip-invariance claim of `verify` checks.
"""

from __future__ import annotations

from .pieces import Puzzle, Support


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


# Each map of the table above as a permutation of the piece ordinals
# (category * 6 + index - 1): entry i is the ordinal of PIECES[i]'s image.
F1 = tuple((0, 2, 1, 3)[i // 6] * 6 + (i + 3) % 6 for i in range(24))
F2 = tuple((3 - i // 6) * 6 + i % 6 for i in range(24))
F3 = tuple((3 - i // 6) * 6 + (0, 4, 5, 3, 1, 2)[i % 6] for i in range(24))


def map_mask(perm: tuple[int, ...], mask: int) -> int:
    """The image of a 24-bit support mask under a piece permutation."""
    image = 0
    for i, j in enumerate(perm):
        if mask >> i & 1:
            image |= 1 << j
    return image


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation p after q."""
    return tuple(p[j] for j in q)


def _generate(*perms: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every composite of the given permutations, the identity first."""
    group = {tuple(range(24))}
    new = group
    while new:
        new = {_compose(g, p) for g in new for p in perms} - group
        group |= new
    return tuple(sorted(group))


#: The maps f1, f2 and f3 generate, as permutations: each sends the
#: puzzles of a support onto those of its image, so all of a support's
#: images count alike.
SYMMETRIES = _generate(F1, F2, F3)


def f1(support: Support) -> Support:
    return Support.from_mask(map_mask(F1, support.mask))


def f2(support: Support) -> Support:
    return Support.from_mask(map_mask(F2, support.mask))


def f3(support: Support) -> Support:
    return Support.from_mask(map_mask(F3, support.mask))


def f12(support: Support) -> Support:
    """The composite f1 after f2 (an involution; maps A-sets to D-sets)."""
    return f1(f2(support))


def f123(support: Support) -> Support:
    """The composite f1 after f2 after f3."""
    return f1(f2(f3(support)))
