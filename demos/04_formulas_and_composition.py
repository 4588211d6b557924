"""Tour of the closed forms: converter families, refinements, and gluing.

Seven simple pieces united with one converter piece have closed-form counts
(theorems.CONVERTER_FORMS); the corner refinements have per-family formulas;
and two families glued through a converter are counted by a triple sum over
the junction ranks.  Everything is cross-checked against the engines.
"""

from stdpuzzle import Support, count_dp, count_prefix, f123
from stdpuzzle.theorems import (CONVERTER_FORMS, CompositionQuery, SIMPLE_PIECES,
                                compose, compose_support, px_refinement,
                                simple_piece_count)

print("The 20 simple-piece families and their formulas:")
for row in SIMPLE_PIECES:
    values = [simple_piece_count(row.x, n) for n in (1, 2, 3, 4)]
    print(f"  {row.x:2d}. {{{row.support}}}: {row.sequence}  -> {values}")

print()
print("One-converter closed forms vs the engine, converter index 5, n = first..4:")
for form in CONVERTER_FORMS:
    support, first = form.support(5), form.first[4]
    formula = [form.count(5, n) for n in range(first, 5)]
    engine = count_prefix(support, 4)[first - 1:]
    print(f"  {form.id} {{{support}}}: formula {formula}, engine {engine}")

print()
print("2-converter families reduce to 1-converter families:")
for i in (1, 4, 5):
    converter = Support.parse(f"C{i}")
    print(f"  {{A2,A3}} + {converter}  counts like  {{A2,A3}} + {f123(converter)}")

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
