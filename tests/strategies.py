"""Hypothesis strategies for signed plane trees numbered in a random order."""

from hypothesis import strategies as st

from hopfarb.trees import PlaneTree


def renumber(t, name):
    """``t`` with each vertex ``v`` renamed ``name[v]``."""
    n = t.size
    labels, parents, children = [0] * n, [None] * n, [()] * n
    for v in range(n):
        p = t.parents[v]
        labels[name[v]] = t.labels[v]
        parents[name[v]] = None if p is None else name[p]
        children[name[v]] = tuple(name[c] for c in t.children[v])
    return PlaneTree(tuple(labels), tuple(parents), tuple(children), name[t.root])


@st.composite
def numberings(draw, n, nonzero_root=False):
    """A permutation of ``range(n)``; with ``nonzero_root`` it moves 0 when n > 1."""
    name = draw(st.permutations(range(n)))
    if nonzero_root and n > 1 and name[0] == 0:
        name[0], name[1] = name[1], name[0]
    return name


@st.composite
def plane_trees(draw, max_size=12, nonzero_root=False):
    """Any signed plane tree, its vertices numbered in a random order."""
    n = draw(st.integers(1, max_size))
    # Parents earlier than their children, siblings in index order: every
    # plane tree arises this way, preorder numbering among others.
    parent = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    labels = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    t = PlaneTree(tuple(labels), tuple(parent), tuple(map(tuple, children)), 0)
    return renumber(t, draw(numberings(n, nonzero_root)))
