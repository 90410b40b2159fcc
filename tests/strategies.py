"""Hypothesis strategies for signed plane trees."""

from hypothesis import strategies as st

from hopfarb.trees import PlaneTree


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
