"""Vertex-deletion reductions on the tree structure, kept as a test oracle.

The library removes a vertex by splicing the canonical text.  These
routines remove vertices from the labels and parents instead and build a
new tree from what is left, so they share nothing with the text splice
but the :class:`PlaneTree` constructor.
"""

from hopfarb.trees import PlaneTree


def splice(t, gone):
    """``t`` without the vertices in ``gone``, each with at most one child.

    The child of a removed vertex takes its parent's slot.  The survivors
    keep their preorder, so they are renumbered in one pass.
    """
    slot = [None] * t.size  # new index of v, or of its nearest kept ancestor
    labels, parents = [], []
    for v in range(t.size):
        p = t.parents[v]
        up = None if p is None else slot[p]
        if v in gone:
            slot[v] = up
        else:
            slot[v] = len(labels)
            labels.append(t.labels[v])
            parents.append(up)
    return PlaneTree(tuple(labels), tuple(parents))


def path_interior(t, u, w):
    """Vertices strictly between ``u`` and its strict descendant ``w``, or None."""
    interior = []
    p = t.parents[w]
    while p is not None and p != u:
        interior.append(p)
        p = t.parents[p]
    return interior if p == u else None


def reductions(t):
    """One-vertex reductions of ``t``: leaves by index, the root, then unary children."""
    removable = [v for v in range(t.size) if not t.children[v]] if t.size > 1 else []
    if len(t.children[t.root]) == 1:
        removable.append(t.root)
    removable += [c for u in range(t.size) for c in t.children[u] if len(t.children[c]) == 1]
    return [splice(t, {v}) for v in removable]
