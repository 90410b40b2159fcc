"""Hypothesis strategies for signed plane trees."""

from hypothesis import strategies as st

from hopfarb.trees import PlaneTree, parse


@st.composite
def plane_trees(draw, max_size=12):
    """Any signed plane tree, its vertices numbered in preorder."""
    n = draw(st.integers(1, max_size))
    # Each vertex hangs below a vertex on the path from the root to the
    # one before it: every plane tree arises this way, exactly once.
    parents, path = [None], [0]
    for v in range(1, n):
        del path[draw(st.integers(1, len(path))) :]
        parents.append(path[-1])
        path.append(v)
    labels = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    return PlaneTree(tuple(labels), tuple(parents))


# Subtrees whose Jacobs-Trevisan value is 0: 2 - 4/2, and 2 - 1/(2 - 3/2).
ZERO_GADGETS = ("+(+,+,+,+)", "-(-,-,-,-)", "+(+(+,+,+))", "-(-(-,-,-))")


@st.composite
def zero_grafted_trees(draw, max_size=12, max_grafts=4):
    """A tree from ``plane_trees`` with zero-valued gadgets grafted below
    some of its vertices, each at any place among that vertex's children.

    A zero-valued subtree has at least 5 vertices, so a vertex with two
    zero children needs at least 11, and no tree small enough to
    enumerate shows one; these trees often do.
    """
    base = draw(plane_trees(max_size))
    labels, kids = list(base.labels), [list(c) for c in base.children]
    for _ in range(draw(st.integers(1, max_grafts))):
        gadget = parse(draw(st.sampled_from(ZERO_GADGETS)))
        v, root = draw(st.integers(0, base.size - 1)), len(labels)
        kids[v].insert(draw(st.integers(0, len(kids[v]))), root)
        labels += gadget.labels
        kids += [[root + c for c in cs] for cs in gadget.children]
    order, parent, stack = [], {0: None}, [0]  # renumber in preorder
    while stack:
        v = stack.pop()
        order.append(v)
        for c in reversed(kids[v]):
            parent[c] = v
            stack.append(c)
    index = {v: i for i, v in enumerate(order)}
    return PlaneTree(
        tuple(labels[v] for v in order),
        tuple(None if parent[v] is None else index[parent[v]] for v in order),
    )
