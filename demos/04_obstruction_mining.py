#!/usr/bin/env python3
# Materializing the minor order over a bounded universe: relation tables,
# Hasse diagrams, monotonicity audits, and excluded-minor mining.

from hopfarb import (
    Predicate,
    audit_monotone,
    check_excluded_family,
    evaluate,
    fingerprint_classes,
    minimal_excluded,
    parse,
    poset,
    universe,
)
from hopfarb.minors import poset_to_dot

# The universe of all trees with at most 3 vertices, in enumeration order.
u = universe(3)
print(f"universe(3): {len(u)} trees")

report = poset(u)
print("relation pairs:", report.stats["relation_pairs"],
      " hasse pairs:", report.stats["hasse_pairs"])

# The Hasse diagram of universe(2) is small enough to read directly.
print("\n" + poset_to_dot(universe(2), poset(universe(2))))

# --- monotone quantities -------------------------------------------------------

# Embedding realizes the smaller surface inside the larger one, so genus
# and Betti number can never drop along the order.  The audit scans every
# relation pair and reports violations; both lists must come back empty.
print("genus violations up to size 4:", audit_monotone("genus", 4))
print("betti violations up to size 4:", audit_monotone("betti", 4))

# --- excluded minors -----------------------------------------------------------

# A property closed under minors is characterized by its minimal
# violators.  Mining 'all signs positive' finds the single obstruction:
# the lone negative vertex.
family = minimal_excluded(Predicate.parse("all_positive"), 4)
print("\nobstructions for all_positive:", [t.text for t in family])

# Testing against the mined family is equivalent to evaluating the
# predicate, for every tree of the universe.
p = Predicate.parse("all_positive")
agree = all(
    check_excluded_family(t, family) == evaluate(p, t) for t in universe(4).trees
)
print("family test reproduces the predicate on universe(4):", agree)

# Bounded size is also minor-closed; its minimal violators at scale 5 are
# exactly the 80 trees with four vertices.
mined = minimal_excluded(Predicate.parse("size_le:3"), 5)
print(f"size_le:3 obstructions: {len(mined)} trees, sizes {sorted({t.size for t in mined})}")

# --- fingerprint classes -------------------------------------------------------

# Same-size trees grouped by invariant fingerprint.  Merged classes show
# distinct trees that plumb to the same boundary link (or at least to
# links these invariants cannot tell apart).
for cls in fingerprint_classes(2):
    print("class:", cls)

merged = [c for c in fingerprint_classes(4) if len(c) > 1]
print(f"size-4 classes with several trees: {len(merged)}; a sample:", merged[0])

# The boundary of +(-) is the figure-eight knot, an amphichiral knot;
# its class pairs the tree with its mirror.
print("figure-eight class:", fingerprint_classes(2)[1],
      "contains", parse("+(-)").text, "and its mirror")
