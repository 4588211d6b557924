"""The verification suite: every published count the engine reproduces.

Each claim recomputes one family of results two independent ways (closed
form vs engine, engine vs engine, or formula vs exhaustive oracle) and
reports pass/fail with both value vectors.  One claim is deliberately
"flagged" rather than failing: the alternative Fibonacci offset that
circulates for the {A1,B1,C1} family disagrees with enumeration, and the
suite records that discrepancy instead of hiding it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable

from . import families, theorems
from .counting import (corner_table, count_bruteforce, count_dp,
                       count_prefix)
from .pieces import PIECES, Support, reduce_window
from .sequences import (catalan, catalan_triangle_t, count_permutations,
                        double_factorial, entringer, fibonacci, lattice_L,
                        secant, triangle_T, whirlpool_W)
from .skeleton import all_simple_pieces, drawn_edge_count

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_FLAGGED = "flagged"
STATUS_SKIPPED = "skipped"


@dataclass
class ClaimResult:
    claim: str
    description: str
    n_range: str
    status: str
    computed: list = field(default_factory=list)
    expected: list = field(default_factory=list)
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "description": self.description,
            "n_range": self.n_range,
            "status": self.status,
            "computed": [str(v) for v in self.computed],
            "expected": [str(v) for v in self.expected],
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
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


def _vectors(claim, description, n_range, computed, expected, detail="") -> ClaimResult:
    status = STATUS_PASS if list(computed) == list(expected) else STATUS_FAIL
    return ClaimResult(claim, description, n_range, status,
                       list(computed), list(expected), detail)


def _formula_claim(claim: str, description: str, cap: int, cases,
                   lo: int = 1) -> Callable[[int], ClaimResult]:
    """A claim that each case (support, formula, first n) counts
    formula(n) for n = first n..min(nmax, cap); skipped when that cap
    falls below lo."""
    def run(nmax: int) -> ClaimResult:
        hi = min(nmax, cap)
        if hi < lo:
            return ClaimResult(claim, description, "-", STATUS_SKIPPED, [], [],
                               f"needs nmax >= {lo}")
        computed, expected = [], []
        for support, formula, first in cases:
            computed += count_prefix(support, hi)[first - 1:]
            expected += [formula(n) for n in range(first, hi + 1)]
        return _vectors(claim, description, f"{lo}..{hi}", computed, expected)
    return run


def _count_down_up(length: int) -> int:
    """Brute-force count of permutations of 1..length with pattern
    down, up, down, ... (pruned backtracking; no recurrences)."""
    # The comparison that ends at position j >= 2 rises exactly when j is odd.
    return count_permutations(length, lambda p: len(p) == 1
                              or len(p) % 2 == (p[-2] < p[-1]))


def _claim_pieces(nmax: int) -> ClaimResult:
    grids = {p.grid for p in PIECES}
    rules = {"A": (True, True), "B": (True, False), "C": (False, True),
             "D": (False, False)}
    consistent = all(
        (p.bl < p.tl, p.br < p.tr) == rules[p.category] for p in PIECES)
    idempotent = all(reduce_window(p.tl, p.tr, p.bl, p.br) == p for p in PIECES)
    computed = [len(PIECES), len(grids), consistent, idempotent]
    return _vectors("pieces", "24 distinct pieces, category rules, reduction idempotent",
                    "-", computed, [24, 24, True, True])


def _claim_secant(nmax: int) -> ClaimResult:
    hi = min(nmax, 5)
    s = Support.parse("A1,A2,A3,A4,A5")
    computed = count_prefix(s, hi)
    expected = [secant(n + 1) for n in range(1, hi + 1)]
    # Independent confirmation of the secant values themselves.
    for k in range(1, min(hi + 1, 5) + 1):
        computed.append(_count_down_up(2 * k))
        expected.append(secant(k))
    return _vectors("secant", "counts for {A1..A5} are the secant numbers "
                    "(confirmed by brute-force down-up permutation counts)",
                    f"1..{hi}", computed, expected)


def _claim_fibonacci_alt(nmax: int) -> ClaimResult:
    hi = min(nmax, 6)
    computed = count_prefix(Support.parse("A1,B1,C1"), hi)
    alt = [fibonacci(n + 2) for n in range(1, hi + 1)]
    status, detail = STATUS_FLAGGED, ("known discrepancy in the published "
                                      "variant: counts match F(n+3) (see claim "
                                      "'fibonacci'), not F(n+2)")
    if computed == alt:
        status, detail = STATUS_FAIL, "the F(n+2) variant unexpectedly matched"
    return ClaimResult("fibonacci-alt-offset",
                       "the circulated F(n+2) variant for {A1,B1,C1}",
                       f"1..{hi}", status, computed, alt, detail)


def _claim_corner_refinements(nmax: int) -> ClaimResult:
    hi = min(nmax, 5)
    computed, expected = [], []
    a123 = Support.parse("A1,A2,A3")
    for n in range(1, hi + 1):
        table = corner_table(a123, n + 1)
        for k in range(1, n + 2):
            computed.append(table.bottom_sum(2 * n - k + 2))
            expected.append(triangle_T(n, k))
    a23 = Support.parse("A2,A3")
    for n in range(1, hi + 1):
        table = corner_table(a23, n + 1)
        for k in range(0, n + 1):
            computed.append(table.bottom_sum(n + k + 1))
            expected.append(catalan_triangle_t(n, k))
    return _vectors("corner-refinements",
                    "bottom-corner refinements hit the weighted-Catalan and "
                    "ballot triangles",
                    f"1..{hi}", computed, expected)


def _claim_corner_entringer(nmax: int) -> ClaimResult:
    hi = min(nmax, 4)
    s = Support.parse("A1,A2,A3,A4,A5")
    computed, expected = [], []
    for n in range(1, hi + 1):
        table = corner_table(s, n + 1)
        for x in range(1, 2 * n + 3):
            computed.append(table.bottom_sum(x))
            expected.append(entringer(2 * n + 1, 2 * n + 2 - x))
        for x in range(1, 2 * n + 3):
            computed.append(table.top_sum(x))
            expected.append(0 if x == 1 else (x - 1) * entringer(2 * n, x - 2))
    return _vectors("corner-entringer",
                    "corner refinements of {A1..A5} are Entringer numbers",
                    f"1..{hi}", computed, expected)


def _claim_hypergeometric(nmax: int) -> ClaimResult:
    hi = min(max(nmax, 1), 20)
    computed, expected = [], []
    for n in range(1, hi + 1):
        computed.append(sum((k + 1) * triangle_T(n - 1, k) for k in range(1, n + 1)))
        expected.append(double_factorial(2 * n))
        lhs = sum((2 * n - k) * (k + 1) * triangle_T(n - 1, k)
                  for k in range(1, n + 1))
        assert lhs % 2 == 0
        computed.append(lhs // 2 + double_factorial(2 * n + 1))
        expected.append(2 ** n * math.factorial(n + 1))
        computed.append(sum(math.comb(2 * n - k + 1, 2) * triangle_T(n - 1, k)
                            for k in range(1, n + 1)) + double_factorial(2 * n + 1))
        expected.append((n + 3) * double_factorial(2 * n + 1)
                        - double_factorial(2 * n + 2))
    return _vectors("hypergeometric-sums",
                    "the three weighted triangle sums equal their closed forms",
                    f"1..{hi}", computed, expected)


def _claim_simple_pieces(nmax: int) -> ClaimResult:
    per_class = [len(all_simple_pieces(i)) for i in (1, 2, 3, 4)]
    ones = all_simple_pieces(1)
    drawn = sorted(drawn_edge_count(s) for s in ones)
    group_sizes = sorted(drawn.count(e) for e in set(drawn))
    total = len({s for i in (1, 2, 3, 4) for s in all_simple_pieces(i)})
    table_match = {row.support for row in theorems.SIMPLE_PIECES} == set(ones)
    zero_tail = all(count_prefix(s, 3)[1:] == [0, 0]
                    for i in (2, 3) for s in all_simple_pieces(i))
    computed = [per_class, sorted(set(drawn)), group_sizes, sum(group_sizes),
                total, table_match, zero_tail]
    expected = [[20, 20, 20, 20], [2, 3, 4, 5], sorted((1, 9, 8, 2)), 20,
                80, True, True]
    return _vectors("simple-pieces",
                    "20 simple pieces per class (80 total), drawn-skeleton "
                    "group sizes {1,2,8,9} over 2..5 edges, converter "
                    "classes die at n >= 2",
                    "-", computed, expected,
                    detail="the published grouping 1+9+8+2 pairs 9 with 3 "
                    "edges and 8 with 4; the consistent drawing statistic "
                    "gives 8 and 9 there (middle entries transposed, same "
                    "multiset and total)")


def _claim_converter_images(nmax: int) -> ClaimResult:
    hi = min(nmax, 3)
    computed, expected = [], []
    for codes in theorems._CONVERTER_FAMILIES:
        family = Support.parse(codes)
        for i in range(1, 7):
            _, j = theorems.converter_image(family, i)
            computed += count_prefix(family | Support.of(f"C{i}"), hi)
            expected += count_prefix(family | Support.of(f"B{j}"), hi)
    return _vectors("converter-images",
                    "2-converter families count like their mapped 1-converter families",
                    f"1..{hi}", computed, expected)


def _claim_q_lemma(nmax: int) -> ClaimResult:
    computed, expected = [], []
    for m in range(1, 4):
        for p in range(1, 5 - m):
            for i in range(1, 2 * m):
                for j in range(1, 2 * m - i + 1):
                    for k in range(1, 2 * p):
                        for l in range(1, 2 * p - k + 1):
                            for which, fn in ((1, theorems.q1), (2, theorems.q2),
                                              (3, theorems.q3)):
                                computed.append(fn(i, j, k, l, m, p))
                                expected.append(
                                    _q_oracle(which, i, j, k, l, m, p))
    return _vectors("q-partition-lemma",
                    "the three split-counting formulas match exhaustive partitioning",
                    "m+p<=4", computed, expected)


def _q_oracle(which, i, j, k, l, m, p) -> int:
    total = 2 * m + 2 * p
    cnt = 0
    for a_part in combinations(range(1, total + 1), 2 * m):
        b_part = [x for x in range(1, total + 1) if x not in a_part]
        ai, aij = a_part[i - 1], a_part[i + j - 1]
        bk, bkl = b_part[k - 1], b_part[k + l - 1]
        if which == 1:
            cnt += ai < bk < bkl < aij
        elif which == 2:
            cnt += ai < bk < aij < bkl
        else:
            cnt += ai < aij < bk < bkl
    return cnt


def _claim_refinement_table(nmax: int) -> ClaimResult:
    hi = min(nmax + 1, 4)
    computed, expected = [], []
    for row in theorems.SIMPLE_PIECES:
        if not row.refinement_known:
            continue
        for m in range(1, hi + 1):
            table = corner_table(row.support, m).entries
            for i in range(1, 2 * m):
                for j in range(1, 2 * m - i + 1):
                    computed.append(theorems.px_refinement(row.x, i, j, m))
                    expected.append(table.get((i, i + j), 0))
    return _vectors("refinement-table",
                    "the per-family corner refinements match the DP tables",
                    f"m<={hi}", computed, expected)


def _claim_composition(nmax: int) -> ClaimResult:
    hi = min(nmax, 3)
    computed, expected = [], []
    for query in (theorems.sample_composition_queries(12, nmax=hi)
                  + theorems.sample_composition_queries(6, nmax=hi, seed=7,
                                                        converter_kind="C")):
        computed.append(theorems.compose(query))
        expected.append(count_dp(theorems.compose_support(query), query.n))
    return _vectors("composition",
                    "the glued-family triple sum matches the engine "
                    "(both converter kinds)",
                    f"n<={hi}", computed, expected)


def _claim_flip_pair(nmax: int) -> ClaimResult:
    hi = min(nmax, 3)
    checks = []
    for r in (1, 2):
        for alpha in combinations(range(1, 7), r):
            for bits_p in range(1 << r):
                for bits_q in range(1 << r):
                    cp = {i: "AB"[bits_p >> t & 1] for t, i in enumerate(alpha)}
                    cq = {i: "CD"[bits_q >> t & 1] for t, i in enumerate(alpha)}
                    cp2 = {i: "AC"[bits_p >> t & 1] for t, i in enumerate(alpha)}
                    cq2 = {i: "BD"[bits_q >> t & 1] for t, i in enumerate(alpha)}
                    checks.append(theorems.flip_pair_identity(alpha, cp, cq, hi))
                    checks.append(theorems.flip_pair_corollary(alpha, cp2, cq2, hi))
    rng = random.Random(13)
    for _ in range(20):
        r = rng.randrange(3, 7)
        alpha = tuple(sorted(rng.sample(range(1, 7), r)))
        cp = {i: rng.choice("AB") for i in alpha}
        cq = {i: rng.choice("CD") for i in alpha}
        checks.append(theorems.flip_pair_identity(alpha, cp, cq, min(hi, 2)))
    return _vectors("flip-pair-identity",
                    "aligned converter/plain choices count twice the all-A family",
                    f"n<={hi}", [all(checks), len(checks)], [True, len(checks)])


def _claim_product_identity(nmax: int) -> ClaimResult:
    hi = min(nmax, 3)
    checks = failures = 0
    for size in range(1, 5):
        for classes in combinations("ABCD", size):
            for r in (1, 2):
                for alpha in combinations(range(1, 7), r):
                    lhs, rhs = theorems.product_identity_pair(classes, alpha, hi)
                    checks += len(lhs)
                    failures += sum(a != b for a, b in zip(lhs, rhs))
    return _vectors("product-identity",
                    "spreading a subscript-1 family across subscripts multiplies counts",
                    f"n<={hi}", [failures, checks], [0, checks])


def _claim_flip_invariance(nmax: int) -> ClaimResult:
    from .transforms import f1, f2, f3
    hi = min(nmax, 4)
    rng = random.Random(101)
    supports = [Support.parse(t) for t in
                ("A2,A3", "A1,A2,A3", "A1,B1,C1", "A1,A4,B3,B6,C3,C6,D1,D4")]
    for _ in range(20):
        size = rng.randrange(0, 25)
        supports.append(Support(frozenset(rng.sample(PIECES, size))))
    computed, expected = [], []
    for s in supports:
        prefix = count_prefix(s, hi)
        for fmap in (f1, f2, f3):
            computed += prefix
            expected += count_prefix(fmap(s), hi)
    return _vectors("flip-invariance",
                    "counts are invariant under the three piece-set bijections",
                    f"1..{hi}", computed, expected)


def _claim_engine_equivalence(nmax: int) -> ClaimResult:
    hi = min(nmax, 3)
    rng = random.Random(77)
    computed, expected = [], []
    for _ in range(30):
        size = rng.randrange(0, 25)
        s = Support(frozenset(rng.sample(PIECES, size)))
        computed += count_prefix(s, hi)
        expected += [count_bruteforce(s, n) for n in range(1, hi + 1)]
    return _vectors("engine-equivalence",
                    "the transfer DP agrees with brute-force enumeration",
                    f"1..{hi}", computed, expected)


def _claim_converter_additivity(nmax: int) -> ClaimResult:
    hi = min(nmax, 4)
    rng = random.Random(29)
    computed, expected = [], []
    for kind in (1, 2):
        # One seeded x per kind keeps the claim to two small sweeps (256
        # and 128 rows); the tests recount every row for several x.
        xs = [rng.randrange(1, 21)]
        added = [row for row in families.sweep(kind, hi, include_open=True, xs=xs)
                 if "," in row["converter_subset"] and not row["duplicate_support"]]
        for row in rng.sample(added, 8):
            computed += [int(v) for v in row["prefix"]]
            expected += count_prefix(Support.parse(row["support"]), hi)
    return _vectors("converter-additivity",
                    "sweep rows with two or more converters, added up from "
                    "the single-converter rows, match direct counts",
                    f"1..{hi}", computed, expected)


_CONVERTER_CASES = [
    (Support.parse(codes.format(i)), partial(formula, i), first)
    for i in range(1, 7)
    for formula, codes, first in (
        (theorems.a123_plus_b, "A1,A2,A3,B{}", 1),
        (theorems.a12_plus_b, "A1,A2,B{}", 1),
        (theorems.a123_plus_c, "A1,A2,A3,C{}", 1),
        (theorems.a12_plus_c, "A1,A2,C{}", 1 if i == 3 else 2),
        (theorems.a23_plus_b, "A2,A3,B{}", 1),
        (theorems.a2_plus_b, "A2,B{}", 1))]

CLAIMS = {
    "pieces": _claim_pieces,
    "catalan": _formula_claim(
        "catalan", "counts for {A2,A3} are the Catalan numbers", 8,
        [(Support.parse("A2,A3"), lambda n: catalan(n + 1), 1)]),
    "double-factorial": _formula_claim(
        "double-factorial", "{A1,A2,A3} counts (2n+1)!!, {A1,A2} counts (2n)!!", 8,
        [(Support.parse("A1,A2,A3"), lambda n: double_factorial(2 * n + 1), 1),
         (Support.parse("A1,A2"), lambda n: double_factorial(2 * n), 1)]),
    "secant": _claim_secant,
    "lattice-paths": _formula_claim(
        "lattice-paths",
        "counts for {A1,A2,A4,A5} are the smooth lattice-path numbers", 6,
        [(Support.parse("A1,A2,A4,A5"), lambda n: lattice_L(n + 1), 1)]),
    "fibonacci": _formula_claim(
        "fibonacci", "counts for {A1,B1,C1} and its flip are F(n+3)", 8,
        [(Support.parse(codes), lambda n: fibonacci(n + 3), 1)
         for codes in ("A1,B1,C1", "B1,C1,D1")]),
    "fibonacci-alt-offset": _claim_fibonacci_alt,
    "linear-family": _formula_claim(
        "linear-family", "counts for {A1,B1,D1} and its flip are n+2", 6,
        [(Support.parse(codes), lambda n: n + 2, 1)
         for codes in ("A1,B1,D1", "A1,C1,D1")]),
    "corner-refinements": _claim_corner_refinements,
    "corner-entringer": _claim_corner_entringer,
    "hypergeometric-sums": _claim_hypergeometric,
    "simple-piece-table": _formula_claim(
        "simple-piece-table",
        "all 20 tabulated simple-piece formulas match the engine", 4,
        [(row.support, row.count, 1) for row in theorems.SIMPLE_PIECES]),
    "simple-pieces": _claim_simple_pieces,
    "converter-closed-forms": _formula_claim(
        "converter-closed-forms",
        "every one-converter closed form matches the engine", 4,
        _CONVERTER_CASES),
    "entringer-closed-forms": _formula_claim(
        "entringer-closed-forms",
        "{A1..A5}+B_i Entringer sums match the engine", 3,
        [(Support.parse(f"A1,A2,A3,A4,A5,B{i}"),
          partial(theorems.a12345_plus_b, i), 2) for i in range(1, 7)], lo=2),
    "converter-images": _claim_converter_images,
    "q-partition-lemma": _claim_q_lemma,
    "refinement-table": _claim_refinement_table,
    "composition": _claim_composition,
    "flip-pair-identity": _claim_flip_pair,
    "whirlpool": _formula_claim(
        "whirlpool", "the vortex-style support counts whirlpool permutations", 3,
        [(Support.parse("A1,A4,B3,B6,C3,C6,D1,D4"), lambda n: whirlpool_W(n + 1), 1)]),
    "product-identity": _claim_product_identity,
    "flip-invariance": _claim_flip_invariance,
    "engine-equivalence": _claim_engine_equivalence,
    "converter-additivity": _claim_converter_additivity,
}


def run_verification(scope="all", nmax: int = 3) -> VerificationReport:
    """Run the claim suite (all claims or a list of claim ids)."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if scope == "all":
        names = list(CLAIMS)
    else:
        names = list(scope)
        unknown = [n for n in names if n not in CLAIMS]
        if unknown:
            raise ValueError(f"unknown claim ids: {', '.join(unknown)}")
    return VerificationReport([CLAIMS[name](nmax) for name in names])
