"""Tour of the skeleton model: order digraphs behind the simple families.

A basic skeleton places order relations on the four corners of a window
(a = top-left, b = bottom-left, c = top-right, d = bottom-right); the
pieces consistent with it form a "simple piece".  Concatenating the
skeleton across the grid turns counting puzzles into counting linear
extensions of a poset, counted by a walk over its order ideals.
"""

from stdpuzzle import (Support, all_simple_pieces, basic_skeleton, classify,
                       count_bruteforce, count_linear_extensions, export_dot,
                       puzzle_skeleton, simple_piece)
from stdpuzzle.sequences import lattice_L
from stdpuzzle.skeleton import (IDEAL_BUDGET, drawn_edge_count,
                                generating_skeleton)

fig = basic_skeleton({("b", "a"), ("d", "c"), ("b", "c")})
print("Skeleton with both columns rising and bottom-left under top-right:")
print(export_dot(fig))
print("class:", classify(fig))
print("simple piece:", simple_piece(fig))

print()
for cls in (1, 2, 3, 4):
    fams = all_simple_pieces(cls)
    cats = sorted({p.category for s in fams for p in s})
    print(f"class {cls}: {len(fams)} simple pieces, all category {cats}")

print()
print("Class-1 families grouped by drawn skeleton edges:")
groups = {}
for s in all_simple_pieces(1):
    groups.setdefault(drawn_edge_count(s), []).append(s)
for edges in sorted(groups):
    print(f"  {edges} edges: {len(groups[edges])} families")

support = Support.parse("A1,A2,A3")
print()
print(f"Counting via linear extensions for {support}:")
for n in (1, 2, 3, 4):
    poset = puzzle_skeleton(support, n)
    le = count_linear_extensions(poset)
    bf = count_bruteforce(support, n)
    print(f"  n={n}: {le} extensions, {bf} enumerated puzzles")

# Family 10 counts smooth lattice paths.  At n = 11 its skeleton has 24
# vertices but fewer order ideals than the budget.  Both numbers come from
# the one walk over order ideals, over two orders built differently: the
# puzzle skeleton, and lattice_L's order on the 24 steps of a lattice path.
lattice = Support.parse("A1,A2,A4,A5")
print()
print(f"{lattice} at n=11 (at most {IDEAL_BUDGET} order ideals):")
print(f"  {count_linear_extensions(puzzle_skeleton(lattice, 11))} extensions, "
      f"lattice_L(12) = {lattice_L(12)}")

print()
print("Concatenated skeleton for n=3 (generating skeleton:",
      sorted(generating_skeleton(support).edges), "):")
print(export_dot(puzzle_skeleton(support, 3)))
