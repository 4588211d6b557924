"""Closed-form and recurrence oracles for the classic sequences.

Everything here is independent of the puzzle engines (lattice_L uses the
skeleton model's generic order counter): these are the reference values
the counting results get checked against.  Conventions at the boundary
indices follow the combinatorial definitions: (-1)!! = 0!! = 1,
T(n,0) = 0, t(n,n+1) = 0.  A generator raises ValueError outside its
reach; each REGISTRY row states its generator's domain as `first`..`last`.

registry_matches is one lookup in a table of every REGISTRY window of
length m (shifted by MATCH_OFFSETS, scaled by MATCH_FACTORS where that
keeps it integral), keyed by its values, with m the prefix length capped
at MATCH_HEAD.  `_match_table(m)` is built once per m and asks each
generator only for terms 1..m + max(MATCH_OFFSETS).  A longer prefix is
looked up by its first MATCH_HEAD terms, and only the hits that survive
have their later terms checked, against generator values memoised per
(sequence, index); a window past its row's `last` is no match.  So
a term such as lattice_L(12) is evaluated only while some prefix still
matches the lattice numbers, and a prefix of at most MATCH_HEAD terms
costs one dict lookup.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, NamedTuple, Optional


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ...; (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError(f"double factorial undefined for {k}")
    return math.prod(range(k, 1, -2))


def catalan(k: int) -> int:
    """C(k) = binom(2k, k) / (k+1)."""
    if k < 0:
        raise ValueError("catalan index must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def fibonacci(k: int) -> int:
    """F(0) = 0, F(1) = 1, F(k) = F(k-1) + F(k-2)."""
    if k < 0:
        raise ValueError("fibonacci index must be >= 0")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


_ROWS: dict[Callable, tuple[int, ...]] = {}


def _row(step: Callable, first: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n of the triangle with row 0 `first` and row n = step(row n-1, n),
    built bottom-up.  _ROWS[step] keeps only the last row built; each row is
    one entry longer than the one before, so its length gives its index.  A
    request for an earlier row rebuilds from row 0."""
    row = _ROWS.get(step, first)
    built = len(row) - len(first)
    if built > n:
        row, built = first, 0
    while built < n:
        built += 1
        row = step(row, built)
    _ROWS[step] = row
    return row


def _entringer_step(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    # Boustrophedon: E(n,k) = E(n,k-1) + E(n-1,n-k), E(0,0) = 1, E(n,0) = 0.
    row = [0]
    for k in range(1, n + 1):
        row.append(row[k - 1] + prev[n - k])
    return tuple(row)


#: Largest row n of each cached triangle (`_row` keeps only the last row
#: built).  In a fresh process on a 2-CPU machine: Entringer row 1000 0.3 s
#: and 17 MB, ballot row 1000 0.1 s and 15 MB, T row 1000 0.7 s and 19 MB
#: (row 300 0.08 s); the interpreter alone takes 14 MB.
ENTRINGER_BOUND = 1000
BALLOT_BOUND = 1000
TRIANGLE_T_BOUND = 1000


def entringer(n: int, k: int) -> int:
    """E(n,k): down-up permutations of n+1 elements starting with k+1."""
    if not 0 <= k <= n <= ENTRINGER_BOUND:
        raise ValueError(f"E({n},{k}) out of range 0 <= k <= n <= {ENTRINGER_BOUND}")
    return _row(_entringer_step, (1,), n)[k]


#: Largest k secant accepts: its terms come from the Entringer rows up to 2k.
SECANT_BOUND = ENTRINGER_BOUND // 2


def secant(k: int) -> int:
    """Secant (even Euler) numbers 1, 1, 5, 61, 1385, ...: S(k) = E(2k, 2k)."""
    if not 0 <= k <= SECANT_BOUND:
        raise ValueError(f"secant index {k} out of range 0..{SECANT_BOUND}")
    return entringer(2 * k, 2 * k)


def _triangle_t_step(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    # T(n,k) for k = 0..n+1 via T(n,k) = k * sum_{i=k-1}^{n} T(n-1,i).
    suffix = list(accumulate(reversed(prev)))[::-1]  # suffix[i] = sum(prev[i:])
    return (0,) + tuple(k * suffix[k - 1] for k in range(1, n + 2))


def triangle_T(n: int, k: int) -> int:
    """Weighted Catalan-tree triangle: T(n,k) = k (2n-k+1)! / ((n-k+1)! 2^(n-k+1)).

    Both the closed form and the recurrence T(n,k) = k * sum T(n-1,i) are
    evaluated and must agree.  Defined for 1 <= k <= n+1, with T(n,0) = 0.
    """
    if not 0 <= n <= TRIANGLE_T_BOUND or not 0 <= k <= n + 1:
        raise ValueError(f"T({n},{k}) out of range 0 <= k <= n+1, n <= {TRIANGLE_T_BOUND}")
    if k == 0:
        return 0
    closed = k * math.factorial(2 * n - k + 1) // (
        math.factorial(n - k + 1) << (n - k + 1))
    by_recurrence = _row(_triangle_t_step, (0, 1), n)[k]
    if closed != by_recurrence:
        raise RuntimeError(f"T({n},{k}): closed form {closed} != recurrence {by_recurrence}")
    return closed


def _ballot_step(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    # t(n,k) for k = 0..n via t(n,k) = sum_{j<=k} t(n-1,j), with t(n-1,n) = 0.
    return tuple(accumulate(prev + (0,)))


def catalan_triangle_t(n: int, k: int) -> int:
    """Ballot numbers t(n,k) = (n-k+1)/(n+1) binom(n+k, n), t(n,n+1) = 0."""
    if not 0 <= n <= BALLOT_BOUND or not 0 <= k <= n + 1:
        raise ValueError(f"t({n},{k}) out of range 0 <= k <= n+1, n <= {BALLOT_BOUND}")
    if k == n + 1:
        return 0
    closed = (n - k + 1) * math.comb(n + k, n) // (n + 1)
    by_recurrence = _row(_ballot_step, (1,), n)[k]
    if closed != by_recurrence:
        raise RuntimeError(f"t({n},{k}): closed form {closed} != recurrence {by_recurrence}")
    return closed


#: Largest n that lattice_L and whirlpool_W evaluate.  More whirlpool terms
#: would add registry windows and could change families, identify and seq output.
#: LATTICE_BOUND is IDEAL_BUDGET's reach: 47321 order ideals at 12, 114243 at 13.
LATTICE_BOUND = 12
WHIRLPOOL_BOUND = 5


def lattice_L(n: int) -> int:
    """Paths from (2,...,2) to (0,...,0) in n coordinates, one unit step down
    at a time, every visited point having |p_i - p_{i+1}| <= 1: the linear
    extensions of the order on the steps a_i (p_i 2 -> 1) and b_i (p_i 1 -> 0)
    that puts each b_i after a_{i-1}, a_i and a_{i+1}."""
    if n < 1:
        raise ValueError("lattice_L needs n >= 1")
    if n > LATTICE_BOUND:
        raise ValueError(f"n={n} exceeds the lattice-path bound {LATTICE_BOUND}")
    # Imported on first use, so commands that never read L load no skeleton.
    from .skeleton import SkeletonGraph, count_linear_extensions
    steps = [(step, i) for i in range(n) for step in "ab"]
    order = {(("a", j), ("b", i)) for i in range(n) for j in (i - 1, i, i + 1)
             if 0 <= j < n}
    return count_linear_extensions(SkeletonGraph(steps, order))


def whirlpool_W(n: int) -> int:
    """Permutations p of 1..2n with p[2k-1] < p[2k]  iff  p[2k] < p[2k+1].
    rise[j] / fall[j] count prefixes whose last entry ranks j+1 among those
    placed and whose last step rose / fell."""
    if n < 1:
        raise ValueError("whirlpool_W needs n >= 1")
    if n > WHIRLPOOL_BOUND:
        raise ValueError(f"n={n} exceeds the whirlpool bound {WHIRLPOOL_BOUND}")
    rise, fall = [1], [0]
    for length in range(2, 2 * n + 1):
        if length % 2 == 0:  # a step into an even position may follow either one
            rise = fall = [r + f for r, f in zip(rise, fall)]
        rise, fall = [0, *accumulate(rise)], [*accumulate(fall[::-1])][::-1] + [0]
    return sum(rise) + sum(fall)


def multinomial_all_pairs(m: int) -> int:
    """(2m)! / 2^m: arrangements of m labeled pairs, each pair ordered."""
    if m < 0:
        raise ValueError("multinomial_all_pairs needs m >= 0")
    return math.factorial(2 * m) >> m


class SequenceId(NamedTuple):
    """A named reference sequence, defined at indices first..last (no end
    when last is None); its generator raises ValueError outside them."""

    name: str
    oeis: Optional[str]
    generator: Callable[[int], int]
    first: int = 0
    last: Optional[int] = None


REGISTRY: tuple[SequenceId, ...] = (
    SequenceId("catalan", "A000108", catalan),
    SequenceId("double_factorial_odd", "A001147", lambda k: double_factorial(2 * k - 1)),
    SequenceId("double_factorial_even", "A000165", lambda k: double_factorial(2 * k)),
    SequenceId("secant", "A000364", secant, 0, SECANT_BOUND),
    SequenceId("fibonacci", "A000045", fibonacci),
    SequenceId("lattice_smooth_paths", "A227656", lattice_L, 1, LATTICE_BOUND),
    SequenceId("whirlpool", "A261683", whirlpool_W, 1, WHIRLPOOL_BOUND),
    SequenceId("ordered_pair_arrangements", "A000680", multinomial_all_pairs),
    SequenceId("all_ones", "A000012", lambda k: 1),
    SequenceId("naturals", "A000027", lambda k: k),
    SequenceId("powers_of_two", "A000079", lambda k: 1 << k),
)

#: Scale factors tried when matching counts against the registry.
MATCH_FACTORS = (Fraction(1), Fraction(2), Fraction(4, 3), Fraction(3, 2))
MATCH_OFFSETS = (0, 1, 2, 3)


#: Prefix terms the match table is keyed on; later terms are checked per hit.
MATCH_HEAD = 4

_TERMS: dict[tuple[str, int], int] = {}


def _term(seq: SequenceId, i: int) -> Optional[int]:
    """seq's term at index i, or None past seq.last; memoised."""
    if seq.last is not None and i > seq.last:
        return None
    key = (seq.name, i)
    if key not in _TERMS:
        _TERMS[key] = seq.generator(i)
    return _TERMS[key]


@functools.lru_cache(maxsize=None)
def _match_table(length: int) -> dict[tuple[int, ...], list[tuple]]:
    """Registry hits for prefixes of length `length`, keyed by the prefix:
    (sequence, offset, factor, hit) per window, ranked plain-first."""
    table: dict[tuple[int, ...], list[tuple]] = {}
    for seq in REGISTRY:
        for offset in MATCH_OFFSETS:
            window = [_term(seq, offset + n) for n in range(1, length + 1)]
            if None in window:
                continue
            for factor in MATCH_FACTORS:
                scaled = [t * factor.numerator for t in window]
                if any(t % factor.denominator for t in scaled):
                    continue
                key = tuple(t // factor.denominator for t in scaled)
                table.setdefault(key, []).append((seq, offset, factor, {
                    "name": seq.name, "oeis": seq.oeis, "offset": offset,
                    "factor": str(factor), "label": "candidate match"}))
    for hits in table.values():
        hits.sort(key=lambda h: (h[2] != 1, h[1], h[0].name))
    return table


def _tail_matches(seq: SequenceId, offset: int, factor: Fraction,
                  prefix: list[int]) -> bool:
    """Whether prefix terms MATCH_HEAD + 1.. equal factor * seq shifted by offset."""
    for n in range(MATCH_HEAD + 1, len(prefix) + 1):
        t = _term(seq, offset + n)
        if t is None or t * factor.numerator != prefix[n - 1] * factor.denominator:
            return False
    return True


def registry_matches(prefix: list[int]) -> list[dict]:
    """Registry hits for a count prefix s_1, s_2, ..., ranked plain-first.

    Each hit is a fresh dict, which the caller may change.
    """
    if not prefix:
        return []
    hits = _match_table(min(len(prefix), MATCH_HEAD)).get(tuple(prefix[:MATCH_HEAD]), ())
    return [dict(hit) for seq, offset, factor, hit in hits
            if _tail_matches(seq, offset, factor, prefix)]
