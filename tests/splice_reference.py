"""Vertex-deletion reductions kept as test oracles, two ways.

The library removes a vertex by one map on the preorder arrays: the
child takes the parent, and every later index moves down by one.
``splice`` instead renumbers the survivors of any set of removals in one
pass and builds a new tree from them, sharing only the
:class:`PlaneTree` constructor.  ``text_splice`` removes a vertex from
the canonical text and shares nothing with the library but ``text``.
"""

from itertools import accumulate

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


def text_splice(t, v):
    """The canonical text of ``t`` without ``v``, which has at most one child.

    Vertex v has the v-th sign of the text: s(X) becomes X, and a leaf
    goes with one adjacent comma, or with its parentheses as an only child.
    """
    text = t.text
    i = [j for j, c in enumerate(text) if c in "+-"][v]
    if text[i + 1 : i + 2] == "(":
        # X's text ends just before the ')' that brings depth back to 0.
        depth = accumulate((c == "(") - (c == ")") for c in text[i + 1 :])
        e = i + 2 + next(j for j, d in enumerate(depth) if not d)
        return text[:i] + text[i + 2 : e - 1] + text[e:]
    if text[i - 1] == "(" and text[i + 1] == ")":
        return text[: i - 1] + text[i + 2 :]
    if text[i + 1] == ",":
        return text[:i] + text[i + 2 :]
    return text[: i - 1] + text[i + 1 :]
