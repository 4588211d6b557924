import os
import random
import subprocess
import sys
from collections import Counter
from itertools import islice, permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stdpuzzle import counting
from stdpuzzle.counting import (corner_table, corner_tables, count_bruteforce,
                                count_corner_bottom, count_corner_top,
                                count_dp, count_prefix, enumerate_puzzles)
from stdpuzzle.pieces import (FULL_SUPPORT, PIECES, Support, is_supported,
                              minimal_support, reduce_window)
from stdpuzzle.sequences import entringer, secant, triangle_T


def naive_count(support, n):
    """Definition-level oracle: try every grid filling outright."""
    total = 0
    for perm in permutations(range(1, 2 * n + 3)):
        top, bottom = perm[:n + 1], perm[n + 1:]
        if all(reduce_window(top[k], top[k + 1], bottom[k], bottom[k + 1]) in support
               for k in range(n)):
            total += 1
    return total


def naive_corner_table(support, m):
    """Definition-level corner table: every filling of the 2 x m grid that
    passes the window filter, tallied by its (bottom-right, top-right)
    labels, which over 1..2m are their own ranks."""
    table = Counter()
    for perm in permutations(range(1, 2 * m + 1)):
        top, bottom = perm[:m], perm[m:]
        if all(reduce_window(top[k], top[k + 1], bottom[k], bottom[k + 1]) in support
               for k in range(m - 1)):
            table[bottom[-1], top[-1]] += 1
    return dict(table)


def run_fresh(code, timeout):
    """Run `code` in a fresh interpreter on this checkout; return stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


NAMED = ["A2,A3", "A1,A2,A3", "A1,A2", "A1,B1,C1", "A1,A2,A4,A5", "B1", "",
         "A1,A4,B3,B6,C3,C6,D1,D4"]


@pytest.mark.parametrize("text", NAMED)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_engines_match_naive_oracle(text, n):
    support = Support.parse(text)
    expected = naive_count(support, n)
    assert count_bruteforce(support, n) == expected
    assert count_dp(support, n) == expected
    assert count_prefix(support, n) == [naive_count(support, k)
                                        for k in range(1, n)] + [expected]


@pytest.mark.parametrize("text", NAMED)
def test_brute_force_does_not_read_the_piece_rectangles(text, monkeypatch):
    # The DP's piece rectangles are blanked and its layers raise; the brute
    # force and the listing must still agree with the reduce_window filter.
    support = Support.parse(text)
    expected = [naive_count(support, n) for n in (1, 2, 3)]
    monkeypatch.setattr(counting, "_PIECE_RECTANGLES", [(None, {})] * 24)

    def no_dp(*args):
        raise AssertionError("the brute force ran the DP")

    monkeypatch.setattr(counting, "corner_tables", no_dp)
    monkeypatch.setattr(counting, "_step", no_dp)
    assert [count_bruteforce(support, n) for n in (1, 2, 3)] == expected
    listed = enumerate_puzzles(support, 3)
    assert len(listed) == expected[-1]
    assert all(is_supported(p, support) for p in listed)
    assert len(set(listed)) == len(listed)


def cut_placements(m):
    """How the ranks u, v of each state over 2m labels sit against the cuts
    (0, lo-1, hi-2, 2m) of each new column: below a cut, at it, one above
    it or further above, with u < v and u' < v'."""
    def place(r, cut):
        return max(-1, min(2, r - cut))
    seen = set()
    for u2, v2 in permutations(range(1, 2 * m + 3), 2):
        lo, hi = min(u2, v2), max(u2, v2)
        cuts = (0, lo - 1, hi - 2, 2 * m)
        seen.update((u < v, u2 < v2, *(place(r, c) for r in (u, v) for c in cuts))
                    for u, v in permutations(range(1, 2 * m + 1), 2))
    return seen


def test_step_certificate():
    """`_step` against the definition, one piece and one state at a time:
    for each piece p, m = 1..3 and each state (u, v) over 2m labels, the
    step of {(u, v): 1} under the support {p} holds exactly the columns
    (u', v') whose window, relabelled by `_relabel`, `reduce_window` maps
    to p, each once.

    Why m <= 3 covers every m: the step is linear in its layer, so unit
    states suffice, and on a unit state a cell reads only where u and v
    sit against the cuts.  Every class (zone of u, zone of v, u < v,
    u' < v') occurs at m = 1 already; to within one rank of every cut,
    all 404 placements occur by m = 3, and m = 4 adds none, so a cut off
    by one is caught too."""
    covered = set().union(*map(cut_placements, (1, 2, 3)))
    assert len(covered) == 404 and cut_placements(4) <= covered
    steps = [[(up, counting._corner_terms(1 << p, up)) for up in (True, False)]
             for p in range(24)]
    checks = 0
    for m in (1, 2, 3):
        size = 2 * m + 2
        for u, v in permutations(range(1, 2 * m + 1), 2):
            expected = [{} for _ in range(24)]
            for u2, v2 in permutations(range(1, size + 1), 2):
                new = counting._relabel(u2, v2, size)
                expected[reduce_window(new[v - 1], v2, new[u - 1], u2).ordinal][u2, v2] = 1
            for p, orientations in enumerate(steps):
                assert counting._step({(u, v): 1}, m, orientations) == expected[p], (p, m, u, v)
                checks += 1
    assert checks == 1056


def test_each_piece_rectangle_is_pinned():
    # Piece p's row alone decides the DP on {p}, and it is the one row the
    # DP on FULL - {p} leaves out; a wrong or swapped row changes a count
    # or a corner table of one of them.
    rows = counting._PIECE_RECTANGLES
    assert len({(up, frozenset(terms.items())) for up, terms in rows}) == 24
    for p in range(24):
        for mask in (1 << p, FULL_SUPPORT.mask ^ 1 << p):
            support = Support.from_mask(mask)
            assert count_prefix(support, 4) == [count_bruteforce(support, n)
                                                for n in range(1, 5)]
            assert corner_table(support, 3).entries == naive_corner_table(support, 3)


def test_full_support_counts_every_filling():
    assert count_dp(FULL_SUPPORT, 1) == 24
    assert count_bruteforce(FULL_SUPPORT, 1) == 24
    assert count_bruteforce(FULL_SUPPORT, 5) == factorial(12)


def test_catalan_family_counts():
    support = Support.parse("A2,A3")
    assert [count_dp(support, n) for n in range(1, 6)] == [2, 5, 14, 42, 132]


def test_all_increasing_family():
    assert count_dp(Support.parse("A1,A2,A3,A4,A5,A6"), 2) == 90


def test_enumerate_two_piece_catalan_listing():
    got = [str(p) for p in enumerate_puzzles(Support.parse("A2,A3"), 2)]
    assert got == ["4 5 6 / 1 2 3", "3 5 6 / 1 2 4", "3 4 6 / 1 2 5",
                   "2 5 6 / 1 3 4", "2 4 6 / 1 3 5"]


def test_enumerate_sorted_and_supported():
    support = Support.parse("A1,A2,A3")
    puzzles = enumerate_puzzles(support, 3)
    assert len(puzzles) == count_dp(support, 3) == 105
    keys = [(p.bottom, p.top) for p in puzzles]
    assert keys == sorted(keys)
    assert all(set(minimal_support(p)) <= set(support) for p in puzzles)


def test_enumerate_empty_support():
    assert enumerate_puzzles(Support.parse(""), 1) == []
    # B1 alone dies after one piece; the walk keeps stepping to the bound.
    for n in (4, 5):
        assert count_bruteforce(Support.parse("B1"), n) == 0
        assert enumerate_puzzles(Support.parse("B1"), n) == []


def test_dp_builds_layers_iteratively():
    # Deep n must not grow the Python stack: one layer per column.
    code = ("import sys\n"
            "from stdpuzzle.counting import count_dp\n"
            "from stdpuzzle.pieces import Support\n"
            "sys.setrecursionlimit(100)\n"
            "print(count_dp(Support.parse('A1'), 80))\n")
    assert run_fresh(code, timeout=120) == "1"


def test_dead_support_stops_early():
    # B1 alone dies after one piece; the empty layers past that point
    # must cost nothing, where prefix sums over 2m ranks would not.
    code = ("from stdpuzzle.counting import corner_table, count_prefix\n"
            "from stdpuzzle.pieces import Support\n"
            "b1 = Support.parse('B1')\n"
            "print(count_prefix(b1, 5000) == [1] + [0] * 4999,\n"
            "      corner_table(b1, 5000).entries == {})\n")
    assert run_fresh(code, timeout=60) == "True True"


def test_deep_counts_match_closed_forms():
    assert count_prefix(FULL_SUPPORT, 30)[-1] == factorial(62)
    assert count_prefix(Support.parse("A1,A2,A3,A4,A5"), 30) == \
        [secant(n + 1) for n in range(1, 31)]
    assert count_prefix(Support.parse("A2,A3"), 60) == \
        [comb(2 * n + 2, n + 1) // (n + 2) for n in range(1, 61)]


def test_deep_corner_table_matches_entringer():
    # Same relation as test_corner_examples, at n = 20 pieces.
    n = 20
    table = corner_table(Support.parse("A1,A2,A3,A4,A5"), n + 1)
    for x in range(1, 2 * n + 3):
        assert table.bottom_sum(x) == entringer(2 * n + 1, 2 * n + 2 - x)


def test_bounds():
    with pytest.raises(ValueError):
        count_bruteforce(Support.parse("A1"), 6)
    with pytest.raises(ValueError):
        enumerate_puzzles(Support.parse("A1"), 6)
    with pytest.raises(ValueError):
        count_dp(Support.parse("A1"), 0)


def test_corner_table_one_piece():
    table = corner_table(Support.parse("A1,A2,A3"), 2)
    assert dict(table.entries) == {(2, 3): 1, (2, 4): 1, (3, 4): 1}
    assert table.total() == 3


def test_corner_table_single_column():
    table = corner_table(Support.parse("D4"), 1)
    assert dict(table.entries) == {(1, 2): 1, (2, 1): 1}


def test_corner_table_total_matches_count():
    for text in ("A2,A3", "A1,B1,C1", "A1,A4,B3,B6,C3,C6,D1,D4"):
        support = Support.parse(text)
        for table in islice(corner_tables(support), 1, 4):
            assert table.total() == count_dp(support, table.columns - 1)


def test_corner_sums_partition_the_count():
    support = Support.parse("A1,A2,A3,A4,A5")
    for n in (1, 2, 3):
        total = count_dp(support, n)
        ranks = range(1, 2 * n + 3)
        assert sum(count_corner_bottom(support, n, x) for x in ranks) == total
        assert sum(count_corner_top(support, n, x) for x in ranks) == total


def test_corner_examples():
    support = Support.parse("A1,A2,A3")
    assert count_corner_bottom(support, 1, 3) == 1 == triangle_T(1, 1)
    assert count_corner_bottom(support, 1, 2) == 2 == triangle_T(1, 2)
    assert count_corner_bottom(support, 1, 1) == 0
    secantish = Support.parse("A1,A2,A3,A4,A5")
    for n in (1, 2):
        for x in range(1, 2 * n + 3):
            assert count_corner_bottom(secantish, n, x) == \
                entringer(2 * n + 1, 2 * n + 2 - x)


@pytest.mark.parametrize("text", NAMED)
def test_corner_table_matches_naive_oracle(text):
    support = Support.parse(text)
    assert corner_table(support, 4).entries == naive_corner_table(support, 4)


@given(st.sets(st.sampled_from(range(24)), max_size=24), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_corner_table_equals_naive_oracle(ordinals, m):
    support = Support(frozenset(PIECES[i] for i in ordinals))
    assert corner_table(support, m).entries == naive_corner_table(support, m)


def test_corner_rank_range():
    with pytest.raises(ValueError):
        count_corner_bottom(Support.parse("A1"), 1, 5)


def test_corner_rank_refused_before_any_dp_layer(monkeypatch):
    def no_layers(*args):
        raise AssertionError("a DP layer was built")
    monkeypatch.setattr(counting, "corner_tables", no_layers)
    monkeypatch.setattr(counting, "_step", no_layers)
    for corner in (count_corner_bottom, count_corner_top):
        for x in (0, 123, 999):
            with pytest.raises(ValueError, match=f"rank {x} out of range 1..122"):
                corner(FULL_SUPPORT, 60, x)


@given(st.sets(st.sampled_from(range(24)), max_size=24), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dp_equals_bruteforce(ordinals, n):
    support = Support(frozenset(PIECES[i] for i in ordinals))
    assert count_dp(support, n) == count_bruteforce(support, n)


@given(st.sets(st.sampled_from(range(24)), max_size=20), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_monotone_in_support(ordinals, n):
    smaller = Support(frozenset(PIECES[i] for i in ordinals))
    rng = random.Random(0)
    extra = rng.sample([p for p in PIECES if p not in smaller], 2)
    larger = Support(set(smaller) | set(extra))
    assert count_dp(smaller, n) <= count_dp(larger, n)
