"""Standard pieces, row puzzles, and supports.

A standard piece is a 2x2 grid holding the labels {1,2,3,4}; there are 24
of them.  Pieces split into four categories by the vertical orientation of
their columns, read bottom to top:

    A  both columns increase        B  left increases, right decreases
    C  left decreases, right up     D  both columns decrease

Within a category the pieces are numbered 1..6, and each also carries the
single-letter code of Guo-Niu Han's nomenclature.  A standard n-puzzle is a
2x(n+1) grid filled bijectively with 1..2n+2; every 2x2 window of adjacent
columns reduces (standardizes) to one of the 24 pieces, and the set of
distinct window reductions is the puzzle's minimal support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class StandardPiece:
    """One of the 24 order patterns a 2x2 window can realize."""

    category: str  # A, B, C or D
    index: int     # 1..6
    letter: str    # Han's single-letter code
    grid: tuple[tuple[int, int], tuple[int, int]]  # ((TL, TR), (BL, BR))

    @property
    def code(self) -> str:
        return f"{self.category}{self.index}"

    @property
    def ordinal(self) -> int:
        """Position in the canonical A1..D6 ordering (0..23)."""
        return "ABCD".index(self.category) * 6 + self.index - 1

    @property
    def tl(self) -> int:
        return self.grid[0][0]

    @property
    def tr(self) -> int:
        return self.grid[0][1]

    @property
    def bl(self) -> int:
        return self.grid[1][0]

    @property
    def br(self) -> int:
        return self.grid[1][1]

    def __str__(self) -> str:
        return self.code


def _p(category: str, index: int, letter: str, top: tuple[int, int],
       bottom: tuple[int, int]) -> StandardPiece:
    return StandardPiece(category, index, letter, (top, bottom))


#: All 24 pieces in canonical order A1..A6, B1..B6, C1..C6, D1..D6.
PIECES: tuple[StandardPiece, ...] = (
    _p("A", 1, "A", (4, 3), (1, 2)),
    _p("A", 2, "B", (3, 4), (1, 2)),
    _p("A", 3, "D", (2, 4), (1, 3)),
    _p("A", 4, "H", (3, 4), (2, 1)),
    _p("A", 5, "G", (4, 3), (2, 1)),
    _p("A", 6, "N", (4, 2), (3, 1)),
    _p("B", 1, "C", (4, 2), (1, 3)),
    _p("B", 2, "E", (3, 2), (1, 4)),
    _p("B", 3, "F", (2, 3), (1, 4)),
    _p("B", 4, "L", (3, 1), (2, 4)),
    _p("B", 5, "J", (4, 1), (2, 3)),
    _p("B", 6, "Q", (4, 1), (3, 2)),
    _p("C", 1, "X", (1, 3), (4, 2)),
    _p("C", 2, "R", (1, 4), (3, 2)),
    _p("C", 3, "K", (1, 4), (2, 3)),
    _p("C", 4, "P", (2, 4), (3, 1)),
    _p("C", 5, "V", (2, 3), (4, 1)),
    _p("C", 6, "U", (3, 2), (4, 1)),
    _p("D", 1, "Z", (1, 2), (4, 3)),
    _p("D", 2, "T", (1, 2), (3, 4)),
    _p("D", 3, "M", (1, 3), (2, 4)),
    _p("D", 4, "S", (2, 1), (3, 4)),
    _p("D", 5, "Y", (2, 1), (4, 3)),
    _p("D", 6, "W", (3, 1), (4, 2)),
)

_BY_CODE = {p.code: p for p in PIECES}
_BY_LETTER = {p.letter: p for p in PIECES}


def _pattern_key(tl: int, tr: int, bl: int, br: int) -> int:
    # Six pairwise comparisons pin the relative order of four distinct values.
    return ((tl > tr) << 5 | (tl > bl) << 4 | (tl > br) << 3
            | (tr > bl) << 2 | (tr > br) << 1 | (bl > br))


# 64-entry table: comparison pattern -> piece ordinal (-1 for impossible keys).
_PATTERN_ORDINAL = [-1] * 64
for _piece in PIECES:
    _PATTERN_ORDINAL[_pattern_key(_piece.tl, _piece.tr, _piece.bl, _piece.br)] = _piece.ordinal


def piece(code: str) -> StandardPiece:
    """Look a piece up by code ("A1".."D6") or Han letter ("A".."Z")."""
    code = code.strip()
    if code.upper() in _BY_CODE:
        return _BY_CODE[code.upper()]
    if code in _BY_LETTER:
        return _BY_LETTER[code]
    raise ValueError(f"unknown piece code {code!r}")


def piece_table() -> list[StandardPiece]:
    """All 24 pieces in canonical order."""
    return list(PIECES)


def reduce_window(tl: int, tr: int, bl: int, br: int) -> StandardPiece:
    """Standardize four distinct labels to the piece with the same order pattern."""
    if len({tl, tr, bl, br}) != 4:
        raise ValueError(
            f"not a valid piece window: ({tl}, {tr}, {bl}, {br}) has repeated labels")
    return PIECES[_PATTERN_ORDINAL[_pattern_key(tl, tr, bl, br)]]


@dataclass(frozen=True)
class Puzzle:
    """A 2x(n+1) grid holding each of 1..2n+2 exactly once (n >= 1 pieces)."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "top", tuple(self.top))
        object.__setattr__(self, "bottom", tuple(self.bottom))
        cols = len(self.top)
        if cols != len(self.bottom):
            raise ValueError("top and bottom rows differ in length")
        if cols < 2:
            raise ValueError("a puzzle needs at least two columns (one piece)")
        labels = sorted(self.top + self.bottom)
        if labels != list(range(1, 2 * cols + 1)):
            raise ValueError(f"labels must be exactly 1..{2 * cols}, each once")

    @property
    def n(self) -> int:
        """Number of pieces (columns minus one)."""
        return len(self.top) - 1

    @classmethod
    def parse(cls, text: str) -> "Puzzle":
        """Parse "3 6 8 7 / 1 2 4 5" or the same rows on two lines."""
        if "/" in text:
            rows = text.split("/")
        else:
            rows = text.strip().splitlines()
        if len(rows) != 2:
            raise ValueError("expected two rows separated by '/' or a newline")
        top = tuple(int(tok) for tok in rows[0].split())
        bottom = tuple(int(tok) for tok in rows[1].split())
        return cls(top, bottom)

    def __str__(self) -> str:
        return " ".join(map(str, self.top)) + " / " + " ".join(map(str, self.bottom))


@dataclass(frozen=True)
class Support:
    """A set of standard pieces, iterated in canonical (category, index) order."""

    members: frozenset[StandardPiece]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for p in self.members:
            if not isinstance(p, StandardPiece):
                raise TypeError(f"not a StandardPiece: {p!r}")

    @classmethod
    def of(cls, *pieces: StandardPiece | str | Iterable) -> "Support":
        """Build a support from pieces, codes, or iterables of either."""
        out = set()
        for item in pieces:
            if isinstance(item, StandardPiece):
                out.add(item)
            elif isinstance(item, str):
                out.add(piece(item))
            else:
                out.update(cls.of(*item).members)
        return cls(frozenset(out))

    @classmethod
    def parse(cls, text: str) -> "Support":
        """Parse a comma-separated list of codes, e.g. "A1,A2,A3" or "A,B,D"."""
        text = text.strip()
        if not text:
            return cls(frozenset())
        return cls.of(*[tok for tok in text.split(",") if tok.strip()])

    @property
    def mask(self) -> int:
        """24-bit membership mask in canonical piece order."""
        m = 0
        for p in self.members:
            m |= 1 << p.ordinal
        return m

    def __iter__(self) -> Iterator[StandardPiece]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: StandardPiece) -> bool:
        return p in self.members

    def __or__(self, other: "Support") -> "Support":
        return Support(self.members | other.members)

    def __bool__(self) -> bool:
        return bool(self.members)

    def __str__(self) -> str:
        return ",".join(p.code for p in self)


EMPTY_SUPPORT = Support(frozenset())
FULL_SUPPORT = Support(frozenset(PIECES))


def pieces_of(puzzle: Puzzle) -> list[StandardPiece]:
    """The n window reductions of a puzzle, left to right."""
    return [
        reduce_window(puzzle.top[k], puzzle.top[k + 1],
                      puzzle.bottom[k], puzzle.bottom[k + 1])
        for k in range(puzzle.n)
    ]


def minimal_support(puzzle: Puzzle) -> Support:
    """The set of distinct window reductions of a puzzle."""
    return Support(frozenset(pieces_of(puzzle)))


def is_supported(puzzle: Puzzle, support: Support) -> bool:
    """True iff every window reduction of the puzzle lies in the support."""
    return minimal_support(puzzle).members <= support.members
