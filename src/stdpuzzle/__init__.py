"""stdpuzzle: enumerate, count, and verify standard puzzles.

A standard n-puzzle is a 2x(n+1) grid filled bijectively with 1..2n+2;
its family is the set of 2x2 order patterns ("pieces") its windows may
realize.  The package provides the piece algebra, two counting engines
(a rank-pair DP and a brute force that checks every move with
`reduce_window`) that share only the piece definitions, the skeleton
model generating the simple families from the partial orders on a
window's corners, closed-form counts with an independent verification
suite, and sequence identification.
"""

from .counting import (CornerTable, corner_table, count_bruteforce,
                       count_corner_bottom, count_corner_top, count_dp,
                       count_prefix, enumerate_puzzles)
from .pieces import (EMPTY_SUPPORT, FULL_SUPPORT, PIECES, Puzzle,
                     StandardPiece, Support, is_supported, minimal_support,
                     piece, piece_table, pieces_of, reduce_window)
from .sequences import (catalan, catalan_triangle_t, double_factorial,
                        entringer, fibonacci, lattice_L,
                        multinomial_all_pairs, registry_matches, secant,
                        triangle_T, whirlpool_W)
from .skeleton import (SkeletonGraph, all_simple_pieces, basic_skeleton,
                       classify, count_linear_extensions, export_dot,
                       generating_skeleton, puzzle_skeleton, simple_piece,
                       validate_basic)
from .transforms import (check_invariance, f1, f2, f3, f12, f123, mirror,
                         t1, t2, t3)

__version__ = "0.1.0"

__all__ = [
    "CornerTable", "EMPTY_SUPPORT", "FULL_SUPPORT", "PIECES", "Puzzle",
    "SkeletonGraph", "StandardPiece", "Support", "all_simple_pieces",
    "basic_skeleton", "catalan", "catalan_triangle_t", "check_invariance",
    "classify", "corner_table", "count_bruteforce", "count_corner_bottom",
    "count_corner_top", "count_dp", "count_linear_extensions", "count_prefix",
    "double_factorial", "entringer", "enumerate_puzzles", "export_dot",
    "f1", "f12", "f123", "f2", "f3", "fibonacci", "generating_skeleton",
    "is_supported", "lattice_L", "minimal_support", "mirror",
    "multinomial_all_pairs", "piece", "piece_table", "pieces_of",
    "puzzle_skeleton", "reduce_window", "registry_matches", "secant",
    "simple_piece", "t1", "t2", "t3", "triangle_T", "validate_basic",
    "whirlpool_W",
]
