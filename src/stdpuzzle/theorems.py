"""Closed-form counts for converter-augmented families and glued supports.

The simple pieces (module skeleton) all have known counting formulas.
SIMPLE_PIECES holds one row per family: its support, its count
(simple_piece_count) and, as one more column, its corner refinement
(px_refinement): how many puzzles of a given column length end with
prescribed bottom-right / top-right ranks.  The module adds:

* CONVERTER_FORMS, the closed forms for a simple piece plus one converter
  piece (the paper's theorems 4.2-4.8), each found by resolve_theorem,
* the partition counts q1/q2/q3 and junction weights ty behind the
  composition rule, and compose itself, which counts puzzles whose support
  glues an increasing family, one 1-converter, and a mirrored family,
* converter_prefixes, the one rule by which a support's converters add up.

The module imports no counting code: every count here is a closed form.
The paper's identities are certificates, not counts: `verify` checks a
fact about the 24 pieces from which both follow for every n, by the
factorization in the docstring of `verify._orientation_factorization`.

Fractional intermediate values are computed exactly and must come out
integral; a non-integral result raises, it never truncates.

Two published displays needed repairs, both verified against the
enumeration engines: the {A2,A3}+B5 closed form (the printed expression
counts {A2,A3,B4,B5} instead) and the cubic coefficient in the {A1,A2}+C5
form.  The refinements of families 9 and 12 needed two analogous repairs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .pieces import Support
from .sequences import (LATTICE_BOUND, SECANT_BOUND, catalan, double_factorial,
                        entringer, lattice_L, multinomial_all_pairs, secant)
from .transforms import f2, f12


def _comb0(n: int, k: int) -> int:
    """Binomial with out-of-range arguments evaluating to 0."""
    return math.comb(n, k) if 0 <= k <= n else 0


def _as_int(value) -> int:
    if isinstance(value, Fraction) and value.denominator != 1:
        raise RuntimeError(f"expected an integer count, got {value}")
    return int(value)


class SimplePieceRow(NamedTuple):
    """One row of the 20-family table of 1-simple pieces.

    `refinement` maps m >= 2 to the nonzero corner refinements
    {(i, j): px(x, i, j, m)} (see px_refinement); it is None for the one
    family with no closed-form refinement.  `last` is the count's reach.
    """

    x: int
    support: Support
    sequence: str  # human-readable formula label
    count: Callable[[int], int]
    refinement: Optional[Callable[[int], dict[tuple[int, int], int]]] = None
    last: Optional[int] = None


def _row(x, codes, sequence, count, refinement, last=None):
    return SimplePieceRow(x, Support.parse(codes), sequence, count, refinement, last)


def _by_i(m: int, lo: int, hi: int, value: Callable[[int], int]) -> dict:
    """Every cell (i, j), i + j <= 2m, with lo <= i <= hi, valued by i."""
    return {(i, j): value(i) for i in range(lo, hi + 1) for j in range(1, 2 * m - i + 1)}


def _by_sum(lo: int, hi: int, value: Callable[[int], int]) -> dict:
    """Every cell (i, j) with lo <= i + j <= hi, valued by i + j."""
    return {(i, s - i): value(s) for s in range(lo, hi + 1) for i in range(1, s)}


_fact, _dfac = math.factorial, double_factorial

# Families 9 and 12 carry repaired refinement boundaries (an index shift
# and the j >= 2 edge), both pinned by the corner tables of the DP engine.
SIMPLE_PIECES: tuple[SimplePieceRow, ...] = (
    _row(1, "A1,A2,A3,A4,A5,A6", "(2n+2)!/2^(n+1)", lambda n: multinomial_all_pairs(n + 1),
         lambda m: _by_sum(2, 2 * m, lambda s: multinomial_all_pairs(m - 1))),
    _row(2, "A3", "1", lambda n: 1, lambda m: {(2 * m - 1, 1): 1}),
    _row(3, "A6", "1", lambda n: 1, lambda m: {(1, 1): 1}),
    _row(4, "A1,A2,A3", "(2n+1)!!", lambda n: double_factorial(2 * n + 1),
         lambda m: _by_i(m, m, 2 * m - 1, lambda i: _fact(i - 1) // _dfac(2 * i - 2 * m))),
    _row(5, "A4,A5,A6", "(2n+1)!!", lambda n: double_factorial(2 * n + 1),
         lambda m: {(1, j): _dfac(2 * m - 3) for j in range(1, 2 * m)}),
    _row(6, "A2,A3,A4", "(2n+1)!!", lambda n: double_factorial(2 * n + 1),
         lambda m: {(i, 2 * m - i): _dfac(2 * m - 3) for i in range(1, 2 * m)}),
    _row(7, "A1,A5,A6", "(2n+1)!!", lambda n: double_factorial(2 * n + 1),
         lambda m: _by_sum(2, m + 1, lambda s: _fact(2 * m - s) // _dfac(2 * m - 2 * s + 2))),
    _row(8, "A1,A2,A3,A4,A5", "secant(n+1)", lambda n: secant(n + 1),
         lambda m: _by_sum(3, 2 * m, lambda s: entringer(2 * m - 2, s - 2)),
         SECANT_BOUND - 1),
    _row(9, "A1,A2,A4,A5,A6", "secant(n+1)", lambda n: secant(n + 1),
         lambda m: _by_i(m, 1, 2 * m - 2, lambda i: entringer(2 * m - 2, 2 * m - i - 1)),
         SECANT_BOUND - 1),
    _row(10, "A1,A2,A4,A5", "smooth lattice paths L(n+1)", lambda n: lattice_L(n + 1), None,
         LATTICE_BOUND - 1),
    _row(11, "A1,A2", "(2n)!!", lambda n: double_factorial(2 * n),
         lambda m: _by_i(m, m, 2 * m - 2,
                         lambda i: (2 * m - 1 - i) * _fact(i - 2) // _dfac(2 * i - 2 * m))),
    _row(12, "A4,A5", "(2n)!!", lambda n: double_factorial(2 * n),
         lambda m: {(1, j): _dfac(2 * m - 4) for j in range(2, 2 * m)}),
    _row(13, "A1,A5", "(2n)!!", lambda n: double_factorial(2 * n),
         lambda m: _by_sum(3, m + 1, lambda s: (s - 2) * _fact(2 * m - 1 - s)
                           // _dfac(2 * m + 2 - 2 * s))),
    _row(14, "A2,A4", "(2n)!!", lambda n: double_factorial(2 * n),
         lambda m: {(i, 2 * m - i): _dfac(2 * m - 4) for i in range(1, 2 * m - 1)}),
    _row(15, "A4", "1", lambda n: 1, lambda m: {(1, 2 * m - 1): 1}),
    _row(16, "A1", "1", lambda n: 1, lambda m: {(m, 1): 1}),
    _row(17, "A2,A3", "catalan(n+1)", lambda n: catalan(n + 1),
         lambda m: {(i, 2 * m - i): _as_int(Fraction(2 * m - i, m) * _comb0(i - 1, m - 1))
                    for i in range(m, 2 * m)}),
    _row(18, "A5,A6", "catalan(n+1)", lambda n: catalan(n + 1),
         lambda m: {(1, j): _as_int(Fraction(j, m) * _comb0(2 * m - 1 - j, m - 1))
                    for j in range(1, m + 1)}),
    _row(19, "A2", "catalan(n)", lambda n: catalan(n),
         lambda m: {(i, 2 * m - i): _as_int(Fraction(2 * m - i - 1, m - 1)
                                            * _comb0(i - 2, m - 2))
                    for i in range(m, 2 * m - 1)}),
    _row(20, "A5", "catalan(n)", lambda n: catalan(n),
         lambda m: {(1, j): _as_int(Fraction(j - 1, m - 1) * _comb0(2 * m - j - 2, m - 2))
                    for j in range(2, m + 1)}),
)

_ROW_BY_X = {row.x: row for row in SIMPLE_PIECES}


def simple_piece_row(x: int) -> SimplePieceRow:
    if x not in _ROW_BY_X:
        raise ValueError(f"simple piece index {x} out of range 1..20")
    return _ROW_BY_X[x]


def simple_piece_count(x: int, n: int) -> int:
    """Count for the x-th simple piece by its tabulated formula, 1 <= n <= last."""
    row = simple_piece_row(x)
    _check_reach(n, 1, row.last)
    return row.count(n)


def _check_i(i: int) -> None:
    if i not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"converter index {i} out of range 1..6")


def _check_reach(n: int, first: int, last: Optional[int]) -> None:
    if n < first or last is not None and n > last:
        reach = f">= {first}" if last is None else f"in {first}..{last}"
        raise ValueError(f"n must be {reach}, got {n}")


def _a123b(i: int, n: int) -> int:
    if i <= 3:
        return _as_int(Fraction(4, 3) * double_factorial(2 * n + 1))
    if i <= 5:
        return 2 ** n * math.factorial(n + 1)
    return (n + 3) * double_factorial(2 * n + 1) - double_factorial(2 * n + 2)


def _a12b(i: int, n: int) -> int:
    if i <= 3:
        return _as_int(Fraction(3, 2) * double_factorial(2 * n))
    if i <= 5:
        return _as_int((2 * n + 2) * double_factorial(2 * n - 1)
                       - Fraction(double_factorial(2 * n), 2))
    return ((2 * n * n + 8 * n + 1) * double_factorial(2 * n - 2)
            - (4 * n + 4) * double_factorial(2 * n - 1))


def _a123c(i: int, n: int) -> int:
    if i <= 2:
        return (_comb0(2 * n, 2) * double_factorial(2 * n - 3)
                + double_factorial(2 * n + 1))
    if i == 3:
        return double_factorial(2 * n + 1) + double_factorial(2 * n - 1)
    return (_comb0(2 * n + 1, 3) * double_factorial(2 * n - 3)
            + double_factorial(2 * n + 1))


def _a12c(i: int, n: int) -> int:
    if i == 3:
        return double_factorial(2 * n) + double_factorial(2 * n - 2)
    even = double_factorial(2 * n)
    small = double_factorial(2 * n - 4)
    if i == 1:
        return _comb0(2 * n - 1, 2) * small + even
    if i == 2:
        return 2 * even - _comb0(2 * n - 1, 2) * small
    if i == 4:
        return (_comb0(2 * n + 1, 3) - 1) * small + even
    if i == 5:
        # Cubic numerator; the published display has n^2, which fails
        # integrality at n = 2 and disagrees with the enumeration.
        return _as_int(Fraction(4 * n ** 3 - 7 * n + 3, 3) * small + even)
    return _comb0(2 * n, 3) * small + even


def _a23b(i: int, n: int) -> int:
    if i == 1:
        return _as_int(Fraction(3, n + 3) * _comb0(2 * n + 2, n))
    if i == 2:
        return _as_int(Fraction(7 * n + 2, n * n + 2 * n) * _comb0(2 * n, n + 1))
    if i == 3:
        return catalan(n + 1) + catalan(n)
    if i == 4:
        return _comb0(2 * n + 1, n)
    if i == 5:
        # The published display equals the {A2,A3,B4,B5} count; subtracting
        # the overlap restores the single-converter family.
        both = _as_int(Fraction(8 * n * (2 * n + 1), (n + 2) * (n + 3))
                       * _comb0(2 * n - 1, n))
        return both + 2 * catalan(n + 1) - _comb0(2 * n + 1, n)
    return _as_int(Fraction(3 * _comb0(2 * n - 1, n) * _comb0(2 * n + 2, 3),
                            (n + 2) * (n + 3))
                   + Fraction(_comb0(2 * n + 2, n + 1), n + 2))


def _a2b(i: int, n: int) -> int:
    if i == 1:
        return catalan(n + 1)
    if i == 2:
        return 2 * catalan(n)
    if i == 3:
        return catalan(n) + catalan(n - 1)
    if i == 4:
        return 2 * _comb0(2 * n - 2, n - 1)
    if i == 5:
        return _as_int(Fraction(2 * n * n + 4, (n + 1) * (n + 2)) * _comb0(2 * n, n))
    return _as_int(Fraction(n * n - n + 4, 4 * n - 2) * _comb0(2 * n + 1, n - 1))


def _a12345b(i: int, n: int) -> int:
    if i in (1, 5, 6):
        weight = lambda t: _comb0(t + 3, 3)
    elif i in (2, 4):
        weight = lambda t: (2 * n - 1 - t) * _comb0(t + 2, 2)
    else:
        weight = lambda t: (t + 1) * _comb0(2 * n - t, 2)
    return sum(weight(t) * entringer(2 * n - 2, t)
               for t in range(1, 2 * n - 1)) + secant(n + 1)


class ConverterForm(NamedTuple):
    """Simple family x plus one converter {kind}i, i = 1..6, counted for
    first[i - 1] <= n <= last (None: no limit); alias is a theorem number."""

    id: str
    alias: Optional[str]
    x: int
    kind: str
    formula: Callable[[int, int], int]
    first: tuple[int, ...] = (1,) * 6
    last: Optional[int] = None

    def support(self, i: int) -> Support:
        return simple_piece_row(self.x).support | Support.parse(f"{self.kind}{i}")

    def count(self, i: int, n: int) -> int:
        _check_i(i)
        _check_reach(n, self.first[i - 1], self.last)
        return self.formula(i, n)


CONVERTER_FORMS: tuple[ConverterForm, ...] = (
    ConverterForm("a123b", "thm42", 4, "B", _a123b),
    ConverterForm("a12b", "thm43", 11, "B", _a12b),
    ConverterForm("a123c", "thm44", 4, "C", _a123c),
    # (2n-4)!! enters every form but i = 3's.
    ConverterForm("a12c", None, 11, "C", _a12c, first=(2, 2, 1, 2, 2, 2)),
    ConverterForm("a23b", "thm46", 17, "B", _a23b),
    ConverterForm("a2b", "thm47", 19, "B", _a2b),
    ConverterForm("a12345b", "thm48", 8, "B", _a12345b, first=(2,) * 6,
                  last=SECANT_BOUND - 1),
)


def resolve_theorem(name: str) -> tuple[str, Callable[[int, int], int]]:
    """The id an id, alias or simple_piece names, and its checked count (i, n)."""
    if name == "simple_piece":
        return name, simple_piece_count
    for form in CONVERTER_FORMS:
        if name in (form.id, form.alias):
            return form.id, form.count
    raise ValueError(f"unknown theorem id {name!r}")


def _refinement(x: int, m: int) -> dict[tuple[int, int], int]:
    """The nonzero px_refinement(x, i, j, m) of family x, keyed by (i, j)."""
    build = simple_piece_row(x).refinement
    if build is None:
        raise ValueError(f"no closed-form refinement is known for family {x}")
    return {(1, 1): 1} if m == 1 else build(m)


def px_refinement(x: int, i: int, j: int, m: int) -> int:
    """Puzzles of the x-th simple piece with m columns, bottom-right rank i
    and top-right rank i+j; zero outside each family's stated domain."""
    if i < 1 or j < 1 or m < 1:
        raise ValueError("px_refinement needs positive i, j, m")
    return _refinement(x, m).get((i, j), 0)


def _check_q_domain(i, j, k, l, m, p):
    if min(i, j, k, l, m, p) < 1:
        raise ValueError("q arguments must be positive")
    if i + j > 2 * m or k + l > 2 * p:
        raise ValueError("q arguments must satisfy i+j <= 2m and k+l <= 2p")


def q1(i: int, j: int, k: int, l: int, m: int, p: int) -> int:
    """Splits of 1..2m+2p into blocks A (2m) and B (2p) with a_i < b_k < b_{k+l} < a_{i+j}."""
    _check_q_domain(i, j, k, l, m, p)
    return sum(_comb0(i + a - 1, a)
               * _comb0(b + k + l - a - 1, b)
               * _comb0(2 * m - i - b + 2 * p - k - l, 2 * p - k - l)
               for a in range(k) for b in range(j))


def q2(i: int, j: int, k: int, l: int, m: int, p: int) -> int:
    """Splits with a_i < b_k < a_{i+j} < b_{k+l}."""
    _check_q_domain(i, j, k, l, m, p)
    return sum(sum(_comb0(i + a - 1, a) * _comb0(b + k - a - 1, b) for a in range(k))
               * sum(_comb0(c + j - b - 1, c)
                     * _comb0(2 * m + 2 * p - k - c - i - j, 2 * m - i - j)
                     for c in range(l))
               for b in range(j))


def q3(i: int, j: int, k: int, l: int, m: int, p: int) -> int:
    """Splits with a_i < a_{i+j} < b_k < b_{k+l}."""
    _check_q_domain(i, j, k, l, m, p)
    return sum(_comb0(i + j + a - 1, a) * _comb0(2 * m + 2 * p - i - j - a, 2 * p - a)
               for a in range(k))


def ty(y: int, i: int, j: int, k: int, l: int, m: int, p: int) -> int:
    """Junction weight for converter B_y: q_y, with argument blocks swapped
    for y in 4..6."""
    _check_i(y)
    if y <= 3:
        return (q1, q2, q3)[y - 1](i, j, k, l, m, p)
    return (q1, q2, q3)[y - 4](k, l, i, j, p, m)


class _CompositionFields(NamedTuple):
    x: int
    y: int
    z: int
    n: int
    converter_kind: str


class CompositionQuery(_CompositionFields):
    """Simple piece x, converter index y of the given kind, mirrored simple
    piece z, puzzle length n."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int, n: int, converter_kind: str = "B"):
        for v in (x, z):
            if simple_piece_row(v).refinement is None:
                raise ValueError(f"family {v} has no refinement; composition unavailable")
        _check_i(y)
        if n < 1:
            raise ValueError("puzzles need n >= 1 pieces")
        if converter_kind not in ("B", "C"):
            raise ValueError("converter kind must be 'B' or 'C'")
        return super().__new__(cls, x, y, z, n, converter_kind)


def glued_support(x: int, z: Optional[int] = None) -> Support:
    """Simple piece x, united with the f12 image of simple piece z if given."""
    support = simple_piece_row(x).support
    return support if z is None else support | f12(simple_piece_row(z).support)


def compose_support(query: CompositionQuery) -> Support:
    """The glued support the composition rule counts: glued_support(x, z)
    with B_y, and for kind C its f2 image, f2(sx) | C_y | f1(sz), since f1
    and f2 commute and so f2 o f12 = f1."""
    support = glued_support(query.x, query.z) | Support.parse(f"B{query.y}")
    return support if query.converter_kind == "B" else f2(support)


def converter_prefixes(base: list[int], singles: list[list[int]]) -> list[list[int]]:
    """The count prefixes of a base support with each subset of its
    converters, by subset bits (bit j for singles[j], the prefix with
    converter j alone): the base plus each converter's excess, in exact
    integers.  `verify`'s `converter-additivity` certificate proves it at every n."""
    prefixes = [base]
    for single in singles:  # the entries with highest bit j, from those before
        prefixes += [[p + s - b for p, s, b in zip(q, single, base)] for q in prefixes]
    return prefixes


def compose(query: CompositionQuery) -> int:
    """Count puzzles over the glued support by the triple-sum rule.

    Splits every mixed puzzle at its one orientation change (the lemma
    of `verify._converter_additivity`): the left part is an x-family
    puzzle with m columns ending with ranks (i, i+j), the junction window
    is the converter, the right part mirrors a z-family puzzle with
    p = n+1-m columns starting with ranks (k, k+l).
    Unmixed puzzles contribute the two family counts.

    The sum does not depend on the converter kind: the C support is `f2`
    of the B support, and f2 preserves counts, so only `compose_support`
    reads `query.converter_kind`.
    """
    n = query.n
    total = 0
    for m in range(1, n + 1):
        p = n + 1 - m
        right = _refinement(query.z, p).items()
        for (i, j), px in _refinement(query.x, m).items():
            for (k, l), pz in right:
                total += px * ty(query.y, i, j, k, l, m, p) * pz
    return total + simple_piece_count(query.x, n) + simple_piece_count(query.z, n)


def sample_composition_queries(count: int, nmax: int = 3, seed: int = 20240809,
                               converter_kind: str = "B") -> list[CompositionQuery]:
    """Deterministic sample of admissible composition queries."""
    rng = random.Random(seed)
    xs = [row.x for row in SIMPLE_PIECES if row.refinement is not None]
    return [CompositionQuery(rng.choice(xs), rng.randrange(1, 7), rng.choice(xs),
                             rng.randrange(1, nmax + 1), converter_kind)
            for _ in range(count)]
