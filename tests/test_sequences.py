import math
from itertools import accumulate, permutations, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from stdpuzzle import sequences, skeleton
from stdpuzzle.counting import count_prefix
from stdpuzzle.pieces import Support
from stdpuzzle.sequences import (LATTICE_BOUND, MATCH_FACTORS, MATCH_HEAD,
                                 MATCH_OFFSETS, REGISTRY, catalan,
                                 catalan_triangle_t, double_factorial,
                                 entringer, fibonacci, lattice_L,
                                 multinomial_all_pairs, registry_matches,
                                 secant, triangle_T, whirlpool_W)
from stdpuzzle.skeleton import IDEAL_BUDGET, SkeletonGraph, count_linear_extensions
from stdpuzzle.theorems import SIMPLE_PIECES
from test_counting import NAMED, run_fresh


def brute_down_up_starting(length, first):
    """Filter oracle: down-up permutations of 1..length with a given head."""
    count = 0
    for p in permutations(range(1, length + 1)):
        if p[0] != first:
            continue
        if all((p[i] > p[i + 1]) == (i % 2 == 0) for i in range(length - 1)):
            count += 1
    return count


def test_double_factorial():
    assert double_factorial(5) == 15
    assert double_factorial(0) == 1
    assert double_factorial(-1) == 1
    assert double_factorial(7) == 105
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_catalan():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(6) == 132


def test_fibonacci():
    assert fibonacci(1) == 1
    assert fibonacci(4) == 3
    assert fibonacci(7) == 13


def test_entringer_small_values():
    assert entringer(0, 0) == 1
    assert entringer(2, 2) == 1
    assert entringer(4, 4) == 5
    with pytest.raises(ValueError):
        entringer(3, 4)
    with pytest.raises(ValueError):
        entringer(3, -1)


@pytest.mark.parametrize("n", range(1, 6))
def test_entringer_matches_permutation_filter(n):
    for k in range(n + 1):
        assert entringer(n, k) == brute_down_up_starting(n + 1, k + 1)


def test_secant_values_and_oracle():
    assert secant(0) == 1
    assert secant(2) == 5
    assert secant(3) == 61
    for k in (1, 2, 3):
        brute = sum(brute_down_up_starting(2 * k, first)
                    for first in range(1, 2 * k + 1))
        assert secant(k) == brute


def test_triangle_T_values():
    assert triangle_T(1, 1) == 1
    assert triangle_T(1, 2) == 2
    assert triangle_T(2, 1) == 3
    assert triangle_T(5, 0) == 0
    with pytest.raises(ValueError):
        triangle_T(3, 5)
    # Rows cost the square of n to build, so row 400 is cheap.
    n, k = 400, 3
    assert triangle_T(n, k) == k * math.factorial(2 * n - k + 1) // (
        math.factorial(n - k + 1) * 2 ** (n - k + 1))


def test_triangle_T_closed_form_equals_recurrence():
    # triangle_T raises internally on any closed-form/recurrence split.
    for n in range(31):
        for k in range(n + 2):
            triangle_T(n, k)


def test_catalan_triangle_values():
    assert catalan_triangle_t(3, 0) == 1
    assert catalan_triangle_t(3, 3) == 5
    assert catalan_triangle_t(2, 1) == 2
    assert catalan_triangle_t(4, 5) == 0
    for n in range(31):
        for k in range(n + 1):
            catalan_triangle_t(n, k)
        assert catalan_triangle_t(n, n) == catalan(n)


def exhaustive_lattice_paths(n):
    """Enumerate smooth step sequences outright (independent of the DP)."""
    def walk(state):
        if all(v == 0 for v in state):
            return 1
        total = 0
        for i, v in enumerate(state):
            if v:
                nxt = state[:i] + (v - 1,) + state[i + 1:]
                if all(abs(nxt[t] - nxt[t + 1]) <= 1 for t in range(len(nxt) - 1)):
                    total += walk(nxt)
        return total

    return walk((2,) * n)


def test_lattice_L():
    assert [lattice_L(n) for n in range(1, 13)] == [
        1, 4, 44, 896, 29392, 1413792, 93770800, 8201380224, 914570667792,
        126651310675680, 21323599202141616, 4289517397262212416]
    for n in range(1, 5):
        assert lattice_L(n) == exhaustive_lattice_paths(n)
    with pytest.raises(ValueError, match="n=13 exceeds the lattice-path bound 12"):
        lattice_L(13)
    with pytest.raises(ValueError, match="lattice_L needs n >= 1"):
        lattice_L(0)


def lattice_step_order(n):
    """a_i lowers coordinate i from 2 to 1, b_i from 1 to 0; each b_i follows
    a_i and its neighbours' a steps."""
    return SkeletonGraph([f"{step}{i}" for i in range(n) for step in "ab"],
                         {(f"a{j}", f"b{i}") for i in range(n)
                          for j in (i - 1, i, i + 1) if 0 <= j < n})


def test_lattice_bound_is_the_reach_of_the_ideal_budget(monkeypatch):
    assert lattice_L(LATTICE_BOUND) == \
        count_linear_extensions(lattice_step_order(LATTICE_BOUND))
    with pytest.raises(ValueError, match=f"budget {IDEAL_BUDGET}"):
        count_linear_extensions(lattice_step_order(LATTICE_BOUND + 1))
    # The LATTICE_BOUND order has 47321 ideals, all within the budget.
    monkeypatch.setattr(skeleton, "IDEAL_BUDGET", 47321)
    lattice_L(LATTICE_BOUND)
    monkeypatch.setattr(skeleton, "IDEAL_BUDGET", 47320)
    with pytest.raises(ValueError, match="budget 47320"):
        lattice_L(LATTICE_BOUND)


def whirlpool_filter(n):
    count = 0
    for p in permutations(range(1, 2 * n + 1)):
        if all((p[2 * k - 2] < p[2 * k - 1]) == (p[2 * k - 1] < p[2 * k])
               for k in range(1, n)):
            count += 1
    return count


def test_whirlpool_W():
    assert whirlpool_W(1) == 2
    assert whirlpool_W(2) == 8
    for n in (1, 2, 3, 4):
        assert whirlpool_W(n) == whirlpool_filter(n)
    assert whirlpool_W(5) == 51040
    with pytest.raises(ValueError):
        whirlpool_W(6)


def test_multinomial_all_pairs():
    assert multinomial_all_pairs(0) == 1
    assert multinomial_all_pairs(1) == 1
    assert multinomial_all_pairs(2) == 6
    assert multinomial_all_pairs(3) == 90
    with pytest.raises(ValueError):
        multinomial_all_pairs(-1)


def boustrophedon_secant(k):
    """S(k) = E(2k, 2k), the last entry of boustrophedon row 2k."""
    row = [1]
    for n in range(1, 2 * k + 1):
        new = [0]
        for j in range(n):
            new.append(new[-1] + row[n - 1 - j])
        row = new
    return row[-1]


def test_triangle_rows_build_without_recursion():
    # A cold call deep into a triangle must not recurse once per row.
    out = run_fresh(
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "from stdpuzzle.sequences import catalan_triangle_t, secant, triangle_T\n"
        "triangle_T(150, 3)\n"
        "catalan_triangle_t(150, 7)\n"
        "print(secant(150))\n", timeout=60)
    assert int(out) == boustrophedon_secant(150)


@pytest.mark.parametrize("triangle", (entringer, triangle_T, catalan_triangle_t),
                         ids=("entringer", "T", "ballot"))
def test_cached_triangles_stop_at_their_ceiling(triangle):
    # The row past the one ceiling is refused before any row is built.
    ceiling = sequences.TRIANGLE_BOUND

    def built():
        return {step: len(rows) for step, rows in sequences._ROWS.items()}

    before = built()
    with pytest.raises(ValueError, match=f"out of range .*n <= {ceiling}$"):
        triangle(ceiling + 1, 1)
    assert built() == before


def boustrophedon_row(n):
    """Row n of the Entringer triangle, E(n, 0..n), by the boustrophedon."""
    row = [1]
    for _ in range(n):
        row = [0, *accumulate(row[::-1])]
    return row


@pytest.mark.parametrize("triangle, closed", (
    (entringer, lambda n, k: boustrophedon_row(n)[k]),
    (triangle_T, lambda n, k: k * math.factorial(2 * n - k + 1)
     // (math.factorial(n - k + 1) * 2 ** (n - k + 1))),
    (catalan_triangle_t, lambda n, k: (n - k + 1) * math.comb(n + k, n) // (n + 1)),
), ids=("entringer", "T", "ballot"))
def test_cached_triangles_rebuild_an_earlier_row(triangle, closed):
    # Only the last row is kept: an earlier row is rebuilt from row 0, and
    # the later row after it is built again.
    later, earlier = 40, 12
    answers = [[triangle(n, k) for k in range(1, n + 1)] for n in (later, earlier, later)]
    assert answers[2] == answers[0]
    for n, row in zip((later, earlier), answers):
        assert row == [closed(n, k) for k in range(1, n + 1)]


def test_registry_rows_state_their_generators_domain():
    for seq in REGISTRY:
        seq.generator(seq.first)
        if seq.first > 0:
            with pytest.raises(ValueError):
                seq.generator(seq.first - 1)
        if seq.last is not None:
            seq.generator(seq.last)
            with pytest.raises(ValueError):
                seq.generator(seq.last + 1)
    assert {seq.name: (seq.first, seq.last) for seq in REGISTRY
            if (seq.first, seq.last) != (0, None)} == {
        "secant": (0, 500), "lattice_smooth_paths": (1, 12), "whirlpool": (1, 5)}


def test_registry_matches_catalan():
    prefix = [2, 5, 14, 42, 132, 429]
    hits = registry_matches(prefix)
    assert any(h["name"] == "catalan" and h["offset"] == 1 and h["factor"] == "1"
               for h in hits)


def test_registry_matches_scaled():
    prefix = [4, 20, 140, 1260]  # 4/3 * (2n+1)!!
    hits = registry_matches(prefix)
    assert any(h["name"] == "double_factorial_odd" and h["factor"] == "4/3"
               for h in hits)


def test_registry_no_match():
    assert registry_matches([2, 6, 23, 106, 567, 3434]) == []


_TERMS = {}


def registry_term(seq, i):
    """seq's term at index i, or None where the generator raises ValueError."""
    if (seq.name, i) not in _TERMS:
        try:
            _TERMS[seq.name, i] = seq.generator(i)
        except ValueError:
            _TERMS[seq.name, i] = None
    return _TERMS[seq.name, i]


def naive_registry_matches(prefix):
    """Reference: every registry sequence at every offset and factor,
    compared term by term with Fraction products, ranked plain-first.
    The first MATCH_HEAD terms must lie in the generator's domain; past
    them, the first term outside it ends the comparison."""
    if not prefix:
        return []
    hits = []
    for seq in REGISTRY:
        for offset in MATCH_OFFSETS:
            terms = [registry_term(seq, n + offset) for n in range(1, len(prefix) + 1)]
            if None in terms[:MATCH_HEAD]:
                continue
            terms = list(takewhile(lambda t: t is not None, terms))
            for factor in MATCH_FACTORS:
                if all(factor * t == s for t, s in zip(terms, prefix)):
                    hits.append({"name": seq.name, "oeis": seq.oeis, "offset": offset,
                                 "factor": str(factor), "label": "candidate match",
                                 "checked_through": len(terms)})
    hits.sort(key=lambda h: (h["factor"] != "1", h["offset"], h["name"]))
    return hits


def registry_windows(length):
    """Every integral registry window of `length` terms at each offset and factor."""
    for seq in REGISTRY:
        for offset in MATCH_OFFSETS:
            terms = [registry_term(seq, n + offset) for n in range(1, length + 1)]
            if None in terms:
                continue
            for factor in MATCH_FACTORS:
                scaled = [factor * t for t in terms]
                if all(v.denominator == 1 for v in scaled):
                    yield [int(v) for v in scaled]


@pytest.mark.parametrize("length", range(1, 7))
def test_registry_matches_every_window(length):
    windows = list(registry_windows(length))
    assert windows
    for window in windows:
        hits = registry_matches(window)
        assert hits and hits == naive_registry_matches(window)


@pytest.mark.parametrize("codes", NAMED + [str(row.support) for row in SIMPLE_PIECES])
def test_registry_matches_family_prefixes(codes):
    prefix = count_prefix(Support.parse(codes), 6)
    for nmax in range(1, 7):
        assert registry_matches(prefix[:nmax]) == naive_registry_matches(prefix[:nmax])


@st.composite
def near_registry_windows(draw):
    """A scaled registry window of 1..12 terms, cut where the generator's
    reach ends, with perhaps one term moved by one."""
    seq = draw(st.sampled_from(REGISTRY))
    offset = draw(st.sampled_from(MATCH_OFFSETS))
    factor = draw(st.sampled_from(MATCH_FACTORS))
    length = draw(st.integers(1, 12))
    terms = [registry_term(seq, offset + n) for n in range(1, length + 1)]
    prefix = [int(factor * t) for t in terms if t is not None]
    moved = draw(st.integers(0, len(prefix)))
    if moved < len(prefix):
        prefix[moved] += draw(st.sampled_from((-1, 1)))
    return prefix


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=150), max_size=12)
       | near_registry_windows())
def test_registry_matches_equals_naive(prefix):
    assert registry_matches(prefix) == naive_registry_matches(prefix)


def test_registry_matches_returns_fresh_hits():
    prefix = [2, 5, 14, 42]
    hits = registry_matches(prefix)
    hits[0]["kind"] = "registry"
    hits[0]["name"] = "changed"
    hits.append({})
    assert registry_matches(prefix) == naive_registry_matches(prefix)


def test_identify_evaluates_no_lattice_term_past_the_head(monkeypatch):
    evaluated = []

    def recorded(seq):
        def generator(i):
            evaluated.append(i)
            return seq.generator(i)
        return seq._replace(generator=generator)

    monkeypatch.setattr(sequences, "REGISTRY", tuple(
        recorded(seq) if seq.name == "lattice_smooth_paths" else seq
        for seq in sequences.REGISTRY))
    sequences._match_table.cache_clear()
    try:
        registry_matches(count_prefix(Support.parse("A1,A2,A3,A4,A5"), 9))
    finally:
        sequences._match_table.cache_clear()
    # Each term is evaluated once (memoised), and none past the head.
    assert sorted(evaluated) == list(range(1, MATCH_HEAD + max(MATCH_OFFSETS) + 1))
