"""Tour of the two counting engines and the classic families they verify.

The brute-force engine walks every column insertion; the transfer engine
keeps only the rank pair of the rightmost column.  They agree everywhere,
and the classic families come out: Catalan numbers, double factorials,
secant numbers, smooth lattice paths, Fibonacci, whirlpool permutations.
"""

from math import factorial

from stdpuzzle import (FULL_SUPPORT, Support, corner_table, count_bruteforce,
                       count_dp, count_prefix, double_factorial,
                       enumerate_puzzles, fibonacci, lattice_L, secant,
                       whirlpool_W)

families = [
    ("A2,A3", "Catalan numbers", lambda n: None),
    ("A1,A2,A3", "(2n+1)!!", lambda n: double_factorial(2 * n + 1)),
    ("A1,A2", "(2n)!!", lambda n: double_factorial(2 * n)),
    ("A1,A2,A3,A4,A5", "secant numbers S(n+1)", lambda n: secant(n + 1)),
    ("A1,A2,A4,A5", "smooth lattice paths L(n+1)", lambda n: lattice_L(n + 1)),
    ("A1,B1,C1", "Fibonacci F(n+3)", lambda n: fibonacci(n + 3)),
    ("A1,A4,B3,B6,C3,C6,D1,D4", "whirlpool W(n+1)", lambda n: whirlpool_W(n + 1)),
]

for codes, label, reference in families:
    support = Support.parse(codes)
    counts = count_prefix(support, 5)
    print(f"{{{codes}}}: {counts}   <- {label}")
    for n in range(1, 6):
        try:
            expected = reference(n)
        except ValueError:
            break  # reference oracle bounded below n=5
        if expected is not None:
            assert counts[n - 1] == expected

print()
print("Both engines agree (brute force checks every move with reduce_window):")
support = Support.parse("A2,A3,B5")
for n in (1, 2, 3, 4):
    print(f"  n={n}: dp={count_dp(support, n)}, brute={count_bruteforce(support, n)}")

print()
print("Deep counts are cheap: a DP layer costs O(m^2) over m columns.")
deep = count_dp(FULL_SUPPORT, 40)
assert deep == factorial(82)  # every filling of the 2x41 grid counts
print(f"  all 24 pieces, n=40: {deep} = 82!")

print()
print("The five 2-piece Catalan puzzles:")
for p in enumerate_puzzles(Support.parse("A2,A3"), 2):
    print("  ", p)

print()
print("Corner refinement (counts by the last column's rank pair), 3 columns")
print("over {A1,A2,A3}:")
table = corner_table(Support.parse("A1,A2,A3"), 3)
for (u, v), count in sorted(table.entries.items()):
    print(f"  bottom-right rank {u}, top-right rank {v}: {count}")
print("  total:", table.total(), "= count of 2-piece puzzles",
      count_dp(Support.parse("A1,A2,A3"), 2))
