#!/usr/bin/env python3
# Signed plane trees: the textual grammar, exhaustive enumeration, and
# the three reductions that generate the minor order.

from hopfarb import (
    contract_path,
    count,
    delete_leaf,
    enumerate_trees,
    parse,
    random_tree,
    strip_root,
)

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

# Three operations generate the homeomorphic-embedding order.
t = parse("+(+,-(+))")
print("\nstart:          ", t.text)

# (1) delete a leaf: vertex 3 is the deepest '+'.
print("delete leaf 3:  ", delete_leaf(t, 3).text)

# (2) strip a single-child root.
print("strip root of -(+(+,-)):", strip_root(parse("-(+(+,-))")).text)

# (3) contract a path whose interior vertices have one child each;
# endpoint labels survive, interior labels vanish.
print("contract 0->2 in +(-(+)):", contract_path(parse("+(-(+))"), 0, 2).text)

# Contracting an actual edge is the identity:
print("contract 0->1 in +(+):   ", contract_path(parse("+(+)"), 0, 1).text)
