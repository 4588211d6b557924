"""Tour of the closed forms: converter families, refinements, and gluing.

Each simple piece united with one converter piece has a closed-form count;
the corner refinements have per-family formulas; and two families glued
through a converter are counted by a triple sum over the junction ranks.
Everything is cross-checked against the engines.
"""

from stdpuzzle import Support, count_dp, count_prefix
from stdpuzzle.theorems import (CompositionQuery, SIMPLE_PIECES, a2_plus_b,
                                a23_plus_b, a123_plus_b, compose,
                                compose_support, converter_image,
                                px_refinement, simple_piece_count)

print("The 20 simple-piece families and their formulas:")
for row in SIMPLE_PIECES:
    values = [simple_piece_count(row.x, n) for n in (1, 2, 3, 4)]
    print(f"  {row.x:2d}. {{{row.support}}}: {row.sequence}  -> {values}")

print()
print("One-converter closed forms vs the engine:")
for i, fn, codes in [(1, a123_plus_b, "A1,A2,A3,B1"),
                     (5, a23_plus_b, "A2,A3,B5"),
                     (6, a2_plus_b, "A2,B6")]:
    support = Support.parse(codes)
    formula = [fn(i, n) for n in (1, 2, 3, 4)]
    engine = count_prefix(support, 4)
    print(f"  {{{codes}}}: formula {formula}, engine {engine}")

print()
print("2-converter families reduce to 1-converter families:")
family = Support.parse("A2,A3")
for i in (1, 4, 5):
    j = converter_image(family, i)
    print(f"  {{A2,A3}} + C{i}  counts like  {{A2,A3}} + B{j}")

print()
print("Refinement of the three-column {A2,A3} table (ballot numbers):")
for i in (3, 4, 5):
    print(f"  bottom-right rank {i}, top-right rank 6:",
          px_refinement(17, i, 6 - i, 3))

print()
print("Gluing: family 4 + converter B1 + mirrored family 4")
query = CompositionQuery(4, 1, 4, 3)
print("  assembled support:", compose_support(query))
print("  triple-sum count: ", compose(query))
print("  engine count:     ", count_dp(compose_support(query), 3))
