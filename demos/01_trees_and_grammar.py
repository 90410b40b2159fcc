#!/usr/bin/env python3
# Signed plane trees: the textual grammar, exhaustive enumeration, and
# the one reduction that generates the minor order.

from hopfarb import count, enumerate_trees, parse, random_tree, remove_vertex

# A tree text is a sign, optionally followed by a parenthesized list of
# children.  Whitespace is free; the canonical form has none.
t = parse(" + ( + , - ( + ) ) ")
print("canonical text:", t.text)
print("vertices:", t.size, "labels:", t.labels)
print("children lists:", t.children)

# Each vertex stands for one Hopf band, each edge for one plumbing.
# The root is vertex 0 and vertices are numbered in preorder.

# --- enumeration -------------------------------------------------------------

# There are 2^n * Catalan(n-1) trees with n vertices: Catalan(n-1) plane
# shapes times 2^n sign assignments.
for n in range(1, 9):
    print(f"size {n}: {count(n):>7} trees")

# The order is fixed: shapes by lexicographic balanced-parenthesis code,
# then sign vectors with '+' before '-'.
print("\nall trees with 2 vertices:", [x.text for x in enumerate_trees(2)])
print("first four of size 3:     ", [x.text for x in list(enumerate_trees(3))[:4]])

# Sampling is uniform over that same sequence and reproducible.
print("\nrandom size-6 trees:", [random_tree(6, seed).text for seed in (0, 1, 2)])

# --- reductions --------------------------------------------------------------

# One operation generates the homeomorphic-embedding order: remove a
# vertex that has at most one child.  Every other vertex keeps its sign.
t = parse("+(+,-(+))")
print("\nstart:          ", t.text)

# A leaf goes with its edge: vertex 3 is the deepest '+'.
print("remove leaf 3:  ", remove_vertex(t, 3).text)

# A single-child root gives way to its child.
print("remove root of -(+(+,-)):", remove_vertex(parse("-(+(+,-))"), 0).text)

# A single-child vertex elsewhere is replaced by its child, which merges
# its two edges; removing each interior vertex of a path contracts it.
print("remove 1 from +(-(+)):   ", remove_vertex(parse("+(-(+))"), 1).text)

# A vertex with two children cannot go.
try:
    remove_vertex(t, 0)
except ValueError as exc:
    print("remove 0 from", t.text + ":", exc)
