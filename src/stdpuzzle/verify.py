"""The verification suite: every published count the engine reproduces.

Each claim recomputes one family of results two independent ways (closed
form vs engine, engine vs engine, formula vs an order count: the
linear extensions of a small digraph, by the skeleton model's one
counter skeleton.count_linear_extensions), or checks a certificate, a
fact about the 24 pieces that implies it for every n (flip-invariance,
converter-images, flip-pair-identity, product-identity,
converter-additivity and simple-pieces' dead converter classes), so the
DP runs only to compare a count with an independent value.  Each reports
pass/fail with both value vectors.  One claim is deliberately "flagged"
rather than failing: the alternative Fibonacci offset that circulates
for the {A1,B1,C1} family disagrees with enumeration, and the suite
records that discrepancy instead of hiding it.

Each claim is one row of CLAIMS: its description, a check that builds
the two vectors, and the cap on n its oracle reaches.  run_verification
runs every row the same way and reports the n range each one checked.
The simple-family claims (catalan, double-factorial, lattice-paths, the
engine half of secant, simple-piece-table) and the two converter claims
are capped views of theorems.SIMPLE_PIECES and CONVERTER_FORMS rows.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Callable, NamedTuple, Sequence

from . import theorems, transforms
from .counting import (corner_tables, count_bruteforce, count_dp,
                       count_prefix)
from .pieces import PIECES, Puzzle, Support, pieces_of, reduce_window
from .sequences import (catalan_triangle_t, double_factorial, entringer,
                        fibonacci, secant, triangle_T, whirlpool_W)
from .skeleton import (SkeletonGraph, all_simple_pieces,
                       count_linear_extensions, drawn_edge_count)
from .transforms import f123, t1, t2, t3

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_FLAGGED = "flagged"
STATUS_SKIPPED = "skipped"


class ClaimResult(NamedTuple):
    """One claim's outcome: the n range it checked, its status and both vectors."""

    claim: str
    description: str
    n_range: str
    status: str
    computed: Sequence = ()
    expected: Sequence = ()
    detail: str = ""

    def to_dict(self) -> dict:
        return self._asdict() | {"computed": [str(v) for v in self.computed],
                                 "expected": [str(v) for v in self.expected]}


class VerificationReport(NamedTuple):
    """The results of one run, in claim order."""

    results: list

    @property
    def summary(self) -> dict:
        out = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_FLAGGED: 0, STATUS_SKIPPED: 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.summary[STATUS_FAIL] == 0

    def to_dict(self) -> dict:
        return {"claims": [r.to_dict() for r in self.results],
                "summary": self.summary}


class Claim(NamedTuple):
    """One row of the suite.  check(hi) returns the computed and expected
    vectors for n = lo..hi, hi being nmax clamped to cap (no cap: nmax is
    not read); span reports the range, given lo, hi and m = hi + 1, the
    columns of a size-hi puzzle.  A flagged text marks a known
    discrepancy: differing vectors are flagged with it, agreeing ones fail.
    """

    description: str
    check: Callable[[int], tuple[list, list]]
    cap: int | None = None
    lo: int = 1
    span: str = "{lo}..{hi}"
    detail: str = ""
    flagged: str = ""


def _formula(cases, hi: int) -> tuple[list, list]:
    """Each case (support, formula, first n) counts formula(n) for n = first n..hi."""
    computed, expected = [], []
    for support, formula, first in cases:
        computed += count_prefix(support, hi)[first - 1:]
        expected += [formula(n) for n in range(first, hi + 1)]
    return computed, expected


def _simple_cases(*xs) -> list:
    """The _formula cases of SIMPLE_PIECES rows xs: support, count, n = 1."""
    return [(row.support, row.count, 1) for row in map(theorems.simple_piece_row, xs)]


def _converter_cases(*ids) -> list:
    """The _formula cases of CONVERTER_FORMS rows ids, i = 1..6 outermost."""
    forms = [form for form in theorems.CONVERTER_FORMS if form.id in ids]
    return [(form.support(i), partial(form.count, i), form.first[i - 1])
            for i in range(1, 7) for form in forms]


def _chain(vertices) -> set:
    """The edges v1 -> v2 -> ... asserting v1 < v2 < ..."""
    return set(zip(vertices, vertices[1:]))


#: Each category's column orientations, left then right (True: up, bottom < top).
_ORIENTATIONS = {"A": (True, True), "B": (True, False), "C": (False, True), "D": (False, False)}


def _pieces(hi: int) -> tuple[list, list]:
    grids = {p.grid for p in PIECES}
    consistent = all(
        (p.bl < p.tl, p.br < p.tr) == _ORIENTATIONS[p.category] for p in PIECES)
    idempotent = all(reduce_window(p.tl, p.tr, p.bl, p.br) == p for p in PIECES)
    return [len(PIECES), len(grids), consistent, idempotent], [24, 24, True, True]


def _secant(hi: int) -> tuple[list, list]:
    computed, expected = _formula(_simple_cases(8), hi)
    # Independent confirmation of the secant values themselves: they count
    # the down-up permutations of 1..2k, the extensions of p1 > p2 < p3 > ...
    for k in range(1, min(hi + 1, 5) + 1):
        zigzag = {(j + 1, j) if j % 2 == 0 else (j, j + 1) for j in range(2 * k - 1)}
        computed.append(count_linear_extensions(SkeletonGraph(range(2 * k), zigzag)))
        expected.append(secant(k))
    return computed, expected


def _corner_refinements(hi: int) -> tuple[list, list]:
    computed, expected = [], []
    for table in islice(corner_tables(Support.parse("A1,A2,A3")), 1, hi + 1):
        n = table.columns - 1
        for k in range(1, n + 2):
            computed.append(table.bottom_sum(2 * n - k + 2))
            expected.append(triangle_T(n, k))
    for table in islice(corner_tables(Support.parse("A2,A3")), 1, hi + 1):
        n = table.columns - 1
        for k in range(0, n + 1):
            computed.append(table.bottom_sum(n + k + 1))
            expected.append(catalan_triangle_t(n, k))
    return computed, expected


def _corner_entringer(hi: int) -> tuple[list, list]:
    computed, expected = [], []
    for table in islice(corner_tables(Support.parse("A1,A2,A3,A4,A5")), 1, hi + 1):
        n = table.columns - 1
        for x in range(1, 2 * n + 3):
            computed.append(table.bottom_sum(x))
            expected.append(entringer(2 * n + 1, 2 * n + 2 - x))
        for x in range(1, 2 * n + 3):
            computed.append(table.top_sum(x))
            expected.append(0 if x == 1 else (x - 1) * entringer(2 * n, x - 2))
    return computed, expected


def _hypergeometric(hi: int) -> tuple[list, list]:
    computed, expected = [], []
    for n in range(1, hi + 1):
        computed.append(sum((k + 1) * triangle_T(n - 1, k) for k in range(1, n + 1)))
        expected.append(double_factorial(2 * n))
        lhs = sum((2 * n - k) * (k + 1) * triangle_T(n - 1, k)
                  for k in range(1, n + 1))
        # Exact halving: an odd sum shows as a mismatch, not an error.
        computed.append(Fraction(lhs, 2) + double_factorial(2 * n + 1))
        expected.append(2 ** n * math.factorial(n + 1))
        computed.append(sum(math.comb(2 * n - k + 1, 2) * triangle_T(n - 1, k)
                            for k in range(1, n + 1)) + double_factorial(2 * n + 1))
        expected.append((n + 3) * double_factorial(2 * n + 1)
                        - double_factorial(2 * n + 2))
    return computed, expected


def _simple_pieces(hi: int) -> tuple[list, list]:
    per_class = [len(all_simple_pieces(i)) for i in (1, 2, 3, 4)]
    ones = all_simple_pieces(1)
    drawn = sorted(drawn_edge_count(s) for s in ones)
    group_sizes = sorted(drawn.count(e) for e in set(drawn))
    total = len({s for i in (1, 2, 3, 4) for s in all_simple_pieces(i)})
    table_match = {row.support for row in theorems.SIMPLE_PIECES} == set(ones)
    # B and C windows turn their column, so no two of one class share one.
    zero_tail = all(left != right for i in (2, 3) for s in all_simple_pieces(i)
                    for p in s for left, right in [_ORIENTATIONS[p.category]])
    computed = [per_class, sorted(set(drawn)), group_sizes, sum(group_sizes),
                total, table_match, zero_tail]
    expected = [[20, 20, 20, 20], [2, 3, 4, 5], sorted((1, 9, 8, 2)), 20,
                80, True, True]
    return computed, expected


def _f123_images(hi: int) -> tuple[list, list]:
    """f1 o f2 o f3 fixes ten simple families and sends C_i to B_j, j = 4,
    2, 3, 1, 5, 6 for i = 1..6.  The map acts on each piece alone, and the
    fixed families hold only A pieces, so each fixed family plus C_i maps
    to the same family plus B_j, and by flip invariance the two count alike."""
    fixed = [row.x for row in theorems.SIMPLE_PIECES if f123(row.support) == row.support]
    images = [str(f123(Support.parse(f"C{i}"))) for i in range(1, 7)]
    return [fixed, images], [[1, 2, 3, 8, 9, 10, 17, 18, 19, 20],
                             ["B4", "B2", "B3", "B1", "B5", "B6"]]


def _q_lemma(hi: int) -> tuple[list, list]:
    """q1..q3 count the interleavings of two chains a_1 < ... < a_2m and
    b_1 < ... < b_2p whose a_i, a_(i+j), b_k, b_(k+l) fall in one order."""
    computed, expected = [], []
    for m in range(1, 4):
        for p in range(1, 5 - m):
            a = [f"a{t}" for t in range(1, 2 * m + 1)]
            b = [f"b{t}" for t in range(1, 2 * p + 1)]
            chains = _chain(a) | _chain(b)
            for i in range(1, 2 * m):
                for j in range(1, 2 * m - i + 1):
                    for k in range(1, 2 * p):
                        for l in range(1, 2 * p - k + 1):
                            ai, aij = a[i - 1], a[i + j - 1]
                            bk, bkl = b[k - 1], b[k + l - 1]
                            for fn, split in ((theorems.q1, (ai, bk, bkl, aij)),
                                              (theorems.q2, (ai, bk, aij, bkl)),
                                              (theorems.q3, (ai, aij, bk, bkl))):
                                computed.append(fn(i, j, k, l, m, p))
                                expected.append(count_linear_extensions(
                                    SkeletonGraph(a + b, chains | _chain(split))))
    return computed, expected


def _refinement_table(hi: int) -> tuple[list, list]:
    computed, expected = [], []
    for row in theorems.SIMPLE_PIECES:
        if row.refinement is None:
            continue
        for m, entries in islice(corner_tables(row.support), hi + 1):
            for i in range(1, 2 * m):
                for j in range(1, 2 * m - i + 1):
                    computed.append(theorems.px_refinement(row.x, i, j, m))
                    expected.append(entries.get((i, i + j), 0))
    return computed, expected


def _composition(hi: int) -> tuple[list, list]:
    computed, expected = [], []
    for query in (theorems.sample_composition_queries(12, nmax=hi)
                  + theorems.sample_composition_queries(6, nmax=hi, seed=7,
                                                        converter_kind="C")):
        computed.append(theorems.compose(query))
        expected.append(count_dp(theorems.compose_support(query), query.n))
    return computed, expected


def _orientation_factorization() -> bool:
    """The piece fact: swapping the two labels of a piece's left column
    gives the piece of the same index with the left orientation toggled
    (A<->C, B<->D); swapping the right column toggles the right one
    (A<->B, C<->D).  So a puzzle is, one to one, an all-A puzzle with the
    same window indices plus its column orientations, and it lies in S
    when each window's index and two column orientations name a piece of S:

        count(S, n) = sum over w of a(w) * 1^T M_{w_1} ... M_{w_n} 1

    for every S and n, where a(w) counts the all-A puzzles with window
    indices w and M_i is the 2x2 0/1 matrix of index i in S, a row per
    left orientation and a column per right one.  The flip-pair and
    product identities follow, and so does converter additivity: with no
    C piece no M_i has a down->up entry (with no B piece, no up->down
    one), so a puzzle's columns turn at most once."""
    return all(
        (window.index, _ORIENTATIONS[window.category]) == (p.index, toggled)
        for p in PIECES for left, right in [_ORIENTATIONS[p.category]]
        for window, toggled in ((reduce_window(p.bl, p.tr, p.tl, p.br), (not left, right)),
                                (reduce_window(p.tl, p.br, p.bl, p.tr), (left, not right))))


def _flip_pair(hi: int) -> tuple[list, list]:
    """{P_i, Q_i : i in alpha} counts twice A_alpha for every alpha and n,
    with P_i, Q_i from A/B and C/D (the identity) or from A/C and B/D (its
    corollary): by `_orientation_factorization`, as each M_i has one 1 per
    row (per column), so has every M_w, and 1^T M_w 1 = 2 where A_alpha has 1."""
    one_per_line = [all(sorted(_ORIENTATIONS[x][side] for x in (p, q)) == [False, True]
                        for p in ps for q in qs)
                    for side, ps, qs in ((0, "AB", "CD"), (1, "AC", "BD"))]
    return [_orientation_factorization(), *one_per_line], [True, True, True]


def _product_identity(hi: int) -> tuple[list, list]:
    """{X_i : X in classes, i in alpha} counts A_alpha times {X_1 : X in
    classes} for every alpha and n: each M_i, i in alpha, is the matrix M of
    classes, so by `_orientation_factorization` the count is |A_alpha| *
    1^T M^n 1, and A1 (labels bl < br < tr < tl: 1, 2, 3, 4) has one puzzle per n."""
    a1 = PIECES[0]
    return [_orientation_factorization(), [a1.bl, a1.br, a1.tr, a1.tl]], [True, [1, 2, 3, 4]]


def _flip_invariance(hi: int) -> tuple[list, list]:
    """Han's maps f1, f2 and f3 are what mirroring the columns (t1),
    swapping the rows (t2) and complementing the labels (t3) do to a
    window: each t_i is an involution on n-puzzles that acts on every
    window alone (t1 also reverses the order of the windows).  So once
    t_i sends each of the 24 pieces, as a 1-puzzle, to its f_i image, a
    puzzle's windows lie in a support exactly when its t_i image's
    windows lie in the support's f_i image.  For every support and every
    n, the support and its f1, f2 and f3 images therefore count alike,
    and so do all 8 `transforms.SYMMETRIES` images, which the sweep's
    one DP run per orbit rests on."""
    computed = [[pieces_of(t(Puzzle((p.tl, p.tr), (p.bl, p.br))))[0].ordinal
                 for p in PIECES] for t in (t1, t2, t3)]
    return computed, [list(transforms.F1), list(transforms.F2), list(transforms.F3)]


def _engine_equivalence(hi: int) -> tuple[list, list]:
    rng = random.Random(77)
    computed, expected = [], []
    for _ in range(30):
        size = rng.randrange(0, 25)
        s = Support(rng.sample(PIECES, size))
        computed += count_prefix(s, hi)
        expected += [count_bruteforce(s, n) for n in range(1, hi + 1)]
    return computed, expected


def _converter_additivity(hi: int) -> tuple[list, list]:
    """Converter additivity, by which `families.sweep` adds up its rows:
    over a support without C pieces (or without B pieces) a converter
    subset's prefix is the base plus each one's excess, at every n.  By
    `_orientation_factorization` only a B window turns a column down and
    only a C window turns it up, so with no C piece a puzzle has at most
    one converter window, and its puzzles split by it.  The sum rule,
    `theorems.converter_prefixes`, is that split: on basis input subset
    b's entry reads b, and a converter counting like the base adds nothing."""
    turning = {x: o for x, o in _ORIENTATIONS.items() if o[0] != o[1]}
    sums = theorems.converter_prefixes([0, 1], [[1 << j, 1] for j in range(6)])
    return ([_orientation_factorization(), turning, sums],
            [True, {"B": (True, False), "C": (False, True)}, [[b, 1] for b in range(64)]])


_ENTRINGER_CASES = _converter_cases("a12345b")

CLAIMS = {
    "pieces": Claim("24 distinct pieces, category rules, reduction idempotent",
                    _pieces, span="-"),
    "catalan": Claim(
        "counts for {A2,A3} are the Catalan numbers",
        partial(_formula, _simple_cases(17)), cap=8),
    "double-factorial": Claim(
        "{A1,A2,A3} counts (2n+1)!!, {A1,A2} counts (2n)!!",
        partial(_formula, _simple_cases(4, 11)), cap=8),
    "secant": Claim("counts for {A1..A5} are the secant numbers (confirmed by "
                    "linear extensions of the zigzag order)", _secant, cap=5),
    "lattice-paths": Claim(
        "counts for {A1,A2,A4,A5} are the smooth lattice-path numbers",
        partial(_formula, _simple_cases(10)), cap=6),
    "fibonacci": Claim(
        "counts for {A1,B1,C1} and its flip are F(n+3)",
        partial(_formula, [(Support.parse(codes), lambda n: fibonacci(n + 3), 1)
                           for codes in ("A1,B1,C1", "B1,C1,D1")]), cap=8),
    "fibonacci-alt-offset": Claim(
        "the circulated F(n+2) variant for {A1,B1,C1}",
        partial(_formula, [(Support.parse("A1,B1,C1"), lambda n: fibonacci(n + 2), 1)]),
        cap=6, detail="the F(n+2) variant unexpectedly matched",
        flagged="known discrepancy in the published variant: counts match "
        "F(n+3) (see claim 'fibonacci'), not F(n+2)"),
    "linear-family": Claim(
        "counts for {A1,B1,D1} and its flip are n+2",
        partial(_formula, [(Support.parse(codes), lambda n: n + 2, 1)
                           for codes in ("A1,B1,D1", "A1,C1,D1")]), cap=6),
    "corner-refinements": Claim(
        "bottom-corner refinements hit the weighted-Catalan and ballot triangles",
        _corner_refinements, cap=5),
    "corner-entringer": Claim("corner refinements of {A1..A5} are Entringer numbers",
                              _corner_entringer, cap=4),
    "hypergeometric-sums": Claim(
        "the three weighted triangle sums equal their closed forms",
        _hypergeometric, cap=20),
    "simple-piece-table": Claim(
        "all 20 tabulated simple-piece formulas match the engine",
        partial(_formula, _simple_cases(*range(1, 21))), cap=4),
    "simple-pieces": Claim(
        "20 simple pieces per class (80 total), drawn-skeleton group sizes "
        "{1,2,8,9} over 2..5 edges, converter classes die at n >= 2",
        _simple_pieces, span="-",
        detail="the published grouping 1+9+8+2 pairs 9 with 3 edges and 8 "
        "with 4; the consistent drawing statistic gives 8 and 9 there (middle "
        "entries transposed, same multiset and total)"),
    "converter-closed-forms": Claim(
        "every one-converter closed form matches the engine",
        partial(_formula, _converter_cases("a123b", "a12b", "a123c", "a12c", "a23b",
                                           "a2b")), cap=4),
    "entringer-closed-forms": Claim(
        "{A1..A5}+B_i Entringer sums match the engine",
        partial(_formula, _ENTRINGER_CASES), cap=3, lo=min(c[2] for c in _ENTRINGER_CASES)),
    "converter-images": Claim("2-converter families count like their mapped 1-converter families",
                              _f123_images, span="-"),
    "q-partition-lemma": Claim(
        "the three split-counting formulas match linear extensions of two chains",
        _q_lemma, span="m+p<=4"),
    "refinement-table": Claim("the per-family corner refinements match the DP tables",
                              _refinement_table, cap=3, span="m<={m}"),
    "composition": Claim(
        "the glued-family triple sum matches the engine (both converter kinds)",
        _composition, cap=3, span="n<={hi}"),
    "flip-pair-identity": Claim("aligned converter/plain choices count twice the all-A family",
                                _flip_pair, span="-"),
    "whirlpool": Claim(
        "the vortex-style support counts whirlpool permutations",
        partial(_formula, [(Support.parse("A1,A4,B3,B6,C3,C6,D1,D4"),
                            lambda n: whirlpool_W(n + 1), 1)]), cap=3),
    "product-identity": Claim("spreading a subscript-1 family across subscripts multiplies counts",
                              _product_identity, span="-"),
    "flip-invariance": Claim("counts are invariant under the three piece-set bijections",
                             _flip_invariance, span="-"),
    "engine-equivalence": Claim("the transfer DP agrees with brute-force enumeration",
                                _engine_equivalence, cap=3),
    "converter-additivity": Claim(
        "the converters of one kind add up: the lemma by which the sweep adds its rows",
        _converter_additivity, span="-"),
}


def run_verification(scope="all", nmax: int = 3) -> VerificationReport:
    """Run the claim suite (all claims or a list of claim ids, each run
    once, in first-seen order).  This is the one place that clamps nmax to
    each claim's cap, skips a claim below its first n, grades the vectors
    and reports the range."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if scope == "all":
        names = list(CLAIMS)
    else:
        names = list(dict.fromkeys(scope))
        unknown = [n for n in names if n not in CLAIMS]
        if unknown:
            raise ValueError(f"unknown claim ids: {', '.join(unknown)}")
    results = []
    for name in names:
        claim = CLAIMS[name]
        hi = nmax if claim.cap is None else min(nmax, claim.cap)
        if hi < claim.lo:
            results.append(ClaimResult(name, claim.description, "-", STATUS_SKIPPED,
                                       detail=f"needs nmax >= {claim.lo}"))
            continue
        computed, expected = claim.check(hi)
        agree = computed == expected
        if claim.flagged and not agree:
            status, detail = STATUS_FLAGGED, claim.flagged
        else:
            status = STATUS_PASS if agree and not claim.flagged else STATUS_FAIL
            detail = claim.detail
        results.append(ClaimResult(name, claim.description,
                                   claim.span.format(lo=claim.lo, hi=hi, m=hi + 1),
                                   status, computed, expected, detail))
    return VerificationReport(results)
