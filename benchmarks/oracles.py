"""Reference values the benchmark checks the program's output against.

Everything here is computed apart from the program: factorials from
`math`, secant and Entringer numbers from this file's own boustrophedon
(itself checked against brute-force down-up permutation counts), and the
small-n recount of sweep rows by filtering every filling of the grid
through the public `reduce_window`, which shares no code with the
counting engines.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations


def full_count(n: int) -> int:
    """All 24 pieces allowed: every filling counts, (2n+2)!."""
    return math.factorial(2 * n + 2)


def a1_a6_count(n: int) -> int:
    """{A1..A6}, both columns increase: (2n+2)! / 2^(n+1)."""
    return math.factorial(2 * n + 2) >> (n + 1)


def a1_a3_count(n: int) -> int:
    """{A1,A2,A3}: (2n+1)!!."""
    return math.prod(range(1, 2 * n + 2, 2))


def a2_a3_count(n: int) -> int:
    """{A2,A3}: Catalan(n+1)."""
    return math.comb(2 * n + 2, n + 1) // (n + 2)


class Boustrophedon:
    """Seidel's triangle: row r holds E(r, 0..r), built right to left from
    row r-1, E(r, k) = E(r, k-1) + E(r-1, r-k).

    E(r, k) counts down-up permutations of r+1 elements starting with k+1;
    the secant number S(k) is E(2k, 2k).
    """

    def __init__(self):
        self.rows = [[1]]

    def row(self, r: int) -> list[int]:
        while len(self.rows) <= r:
            prev = self.rows[-1]
            width = len(prev)
            acc = [0]
            for k in range(1, width + 1):
                acc.append(acc[-1] + prev[width - k])
            self.rows.append(acc)
        return self.rows[r]

    def entringer(self, r: int, k: int) -> int:
        return self.row(r)[k]

    def secant(self, k: int) -> int:
        return self.entringer(2 * k, 2 * k)


def _down_up_by_first(length: int) -> list[int]:
    """Down-up permutations of 1..length, tallied by first value minus one."""
    tally = [0] * length
    for perm in permutations(range(1, length + 1)):
        if all((perm[i] > perm[i + 1]) == (i % 2 == 0) for i in range(length - 1)):
            tally[perm[0] - 1] += 1
    return tally


def self_check(table: Boustrophedon) -> None:
    """The triangle against brute-force permutation counts for r <= 6."""
    for r in range(1, 7):
        if table.row(r) != _down_up_by_first(r + 1):
            raise RuntimeError(f"boustrophedon row {r} disagrees with brute force")


def corner_bottom_a1_a5(table: Boustrophedon, n: int, x: int) -> int:
    """{A1..A5} puzzles of length n with label x bottom-right: E(2n+1, 2n+2-x)."""
    return table.entringer(2 * n + 1, 2 * n + 2 - x)


class FillingRecount:
    """Counts of every filling of the 2x(n+1) grid by minimal support, n <= 3.

    Each filling's windows go through `reduce_window`; a support then
    counts the fillings whose minimal support it contains.
    """

    def __init__(self, reduce_window, nmax: int = 3):
        memo: dict[tuple, int] = {}
        codes: dict[str, int] = {}

        def bit(window: tuple) -> int:
            got = memo.get(window)
            if got is None:
                code = reduce_window(*window).code
                got = memo[window] = 1 << codes.setdefault(code, len(codes))
            return got

        self.codes = codes
        self.by_n = {}
        for n in range(1, nmax + 1):
            tally: Counter = Counter()
            for perm in permutations(range(1, 2 * n + 3)):
                top, bottom = perm[:n + 1], perm[n + 1:]
                mask = 0
                for c in range(n):
                    mask |= bit((top[c], top[c + 1], bottom[c], bottom[c + 1]))
                tally[mask] += 1
            self.by_n[n] = tally

    def count(self, support_codes: list[str], n: int) -> int:
        allowed = 0
        for code in support_codes:
            allowed |= 1 << self.codes[code]
        return sum(cnt for mask, cnt in self.by_n[n].items() if not mask & ~allowed)
