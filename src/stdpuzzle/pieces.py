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

from typing import Iterable, Iterator, NamedTuple


class StandardPiece(NamedTuple):
    """One of the 24 order patterns a 2x2 window can realize; pieces order
    by (category, index, letter, grid)."""

    category: str                                  # A, B, C or D
    index: int                                     # 1..6
    letter: str                                    # Han's single-letter code
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

#: _SPELLING[k][bits]: the codes of category k ("ABCD"[k]) whose pieces are
#: in `bits`, that category's 6-bit slice of a support mask.
_SPELLING = tuple(
    tuple([p.code for i, p in enumerate(PIECES[6 * k:6 * k + 6]) if bits >> i & 1]
          for bits in range(64))
    for k in range(4))


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


def reduce_window(tl: int, tr: int, bl: int, br: int) -> StandardPiece:
    """Standardize four distinct labels to the piece with the same order pattern."""
    if len({tl, tr, bl, br}) != 4:
        raise ValueError(
            f"not a valid piece window: ({tl}, {tr}, {bl}, {br}) has repeated labels")
    return PIECES[_PATTERN_ORDINAL[_pattern_key(tl, tr, bl, br)]]


class _PuzzleFields(NamedTuple):
    top: tuple[int, ...]
    bottom: tuple[int, ...]


class Puzzle(_PuzzleFields):
    """A 2x(n+1) grid holding each of 1..2n+2 exactly once (n >= 1 pieces)."""

    __slots__ = ()

    def __new__(cls, top: Iterable[int], bottom: Iterable[int]):
        top, bottom = tuple(top), tuple(bottom)
        cols = len(top)
        if cols != len(bottom):
            raise ValueError("top and bottom rows differ in length")
        if cols < 2:
            raise ValueError("a puzzle needs at least two columns (one piece)")
        labels = sorted(top + bottom)
        if labels != list(range(1, 2 * cols + 1)):
            raise ValueError(f"labels must be exactly 1..{2 * cols}, each once")
        return super().__new__(cls, top, bottom)

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


class Support:
    """A set of standard pieces, held as a 24-bit mask (bit i is the piece
    of ordinal i) and iterated in canonical A1..D6 order.  Supports are
    equal, and hash alike, when their masks are."""

    __slots__ = ("mask",)

    def __init__(self, members: Iterable[StandardPiece]):
        mask = 0
        for p in members:
            if not isinstance(p, StandardPiece):
                raise TypeError(f"not a StandardPiece: {p!r}")
            mask |= 1 << p.ordinal
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask: int) -> "Support":
        """The support whose membership mask is `mask` (0 <= mask < 2^24)."""
        if not 0 <= mask < 1 << 24:
            raise ValueError(f"not a 24-bit support mask: {mask!r}")
        support = object.__new__(cls)
        object.__setattr__(support, "mask", mask)
        return support

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def parse(cls, text: str) -> "Support":
        """Parse a comma-separated list of codes, e.g. "A1,A2,A3" or "A,B,D"."""
        return cls(piece(tok) for tok in text.split(",") if tok.strip())

    def __iter__(self) -> Iterator[StandardPiece]:
        mask = self.mask
        return (p for i, p in enumerate(PIECES) if mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, p: StandardPiece) -> bool:
        return isinstance(p, StandardPiece) and bool(self.mask >> p.ordinal & 1)

    def __or__(self, other: "Support") -> "Support":
        return Support.from_mask(self.mask | other.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __str__(self) -> str:
        a, b, c, d = _SPELLING
        mask = self.mask
        return ",".join(a[mask & 63] + b[mask >> 6 & 63] + c[mask >> 12 & 63] + d[mask >> 18])

    def __repr__(self) -> str:
        return f"Support.parse({str(self)!r})"


FULL_SUPPORT = Support(PIECES)


def pieces_of(puzzle: Puzzle) -> list[StandardPiece]:
    """The n window reductions of a puzzle, left to right."""
    return [
        reduce_window(puzzle.top[k], puzzle.top[k + 1],
                      puzzle.bottom[k], puzzle.bottom[k + 1])
        for k in range(puzzle.n)
    ]


def minimal_support(puzzle: Puzzle) -> Support:
    """The set of distinct window reductions of a puzzle."""
    return Support(pieces_of(puzzle))


def is_supported(puzzle: Puzzle, support: Support) -> bool:
    """True iff every window reduction of the puzzle lies in the support."""
    return not minimal_support(puzzle).mask & ~support.mask
