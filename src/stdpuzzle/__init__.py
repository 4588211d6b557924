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

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A name's submodule is
# imported on first access (PEP 562), so `import stdpuzzle` loads none.
_EXPORTS = (
    dict.fromkeys(("CornerTable", "corner_table", "count_bruteforce",
                   "count_corner_bottom", "count_corner_top", "count_dp",
                   "count_prefix", "enumerate_puzzles"), "counting")
    | dict.fromkeys(("EMPTY_SUPPORT", "FULL_SUPPORT", "PIECES", "Puzzle",
                     "StandardPiece", "Support", "is_supported",
                     "minimal_support", "piece", "piece_table", "pieces_of",
                     "reduce_window"), "pieces")
    | dict.fromkeys(("catalan", "catalan_triangle_t", "double_factorial",
                     "entringer", "fibonacci", "lattice_L",
                     "multinomial_all_pairs", "registry_matches", "secant",
                     "triangle_T", "whirlpool_W"), "sequences")
    | dict.fromkeys(("SkeletonGraph", "all_simple_pieces", "basic_skeleton",
                     "classify", "count_linear_extensions", "export_dot",
                     "generating_skeleton", "puzzle_skeleton", "simple_piece",
                     "validate_basic"), "skeleton")
    | dict.fromkeys(("f1", "f2", "f3", "f12", "f123", "t1", "t2", "t3"),
                  "transforms")
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
