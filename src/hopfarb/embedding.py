"""Homeomorphic embedding of signed plane trees.

``T1`` embeds into ``T2`` when ``T1`` is reachable from ``T2`` by
iterated leaf deletion, removal of a single-child root, and contraction
of single-child paths to an edge, all respecting vertex signs and the
plane (left-to-right) order.  Equivalently, there is an injection of the
vertices of ``T1`` into those of ``T2`` preserving signs, sending edges
to vertex-disjoint strictly descending paths, and entering the children
subtrees of each image in the order of the corresponding children.

Two deciders are provided: a polynomial dynamic program (`embeds`, with
certificate extraction via `embed_witness`) and a brute-force closure
search over the reduction operations (`oracle_embeds`), kept independent
so each can cross-validate the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import PlaneTree, _reduction_texts, parse

__all__ = [
    "EmbeddingWitness",
    "embeds",
    "embed_witness",
    "verify_witness",
    "oracle_embeds",
    "operation_closure",
    "DEFAULT_ORACLE_GUARD",
]

DEFAULT_ORACLE_GUARD = 8


@dataclass(frozen=True)
class EmbeddingWitness:
    """Certificate that a tree embeds into another.

    ``vertex_map[u]`` is the image in ``T2`` of vertex ``u`` of ``T1``.
    ``edge_paths`` holds, for each edge parent -> child of ``T1`` (ordered
    by the child's preorder index), the strictly descending path in ``T2``
    from the parent's image to the child's image, endpoints included.
    """

    vertex_map: tuple[int, ...]
    edge_paths: tuple[tuple[int, ...], ...]

    def to_json_obj(self) -> dict:
        return {
            "vertex_map": [[u, v] for u, v in enumerate(self.vertex_map)],
            "edge_paths": [list(p) for p in self.edge_paths],
        }


def _embedding_tables(t1: PlaneTree, t2: PlaneTree):
    """Bottom-up DP tables.

    ``emb[u][v]``: the subtree of ``T1`` at ``u`` embeds with ``u`` mapped
    exactly to ``v``.  ``sub[u][v]``: it embeds with ``u`` mapped to ``v``
    or to some descendant of ``v``.  ``emb[u][v]`` requires equal signs
    and an order-preserving assignment of the children of ``u`` into
    distinct children subtrees of ``v``; the leftmost-feasible greedy
    assignment is complete for this matching.
    """
    lab1, lab2 = t1.labels, t2.labels
    ch1, ch2 = t1.children, t2.children
    n1, n2 = t1.size, t2.size
    emb = [[False] * n2 for _ in range(n1)]
    sub = [[False] * n2 for _ in range(n1)]
    order1 = t1.preorder()
    for v in reversed(t2.preorder()):
        cv = ch2[v]
        lv = lab2[v]
        for u in reversed(order1):
            e = False
            if lab1[u] == lv:
                cu = ch1[u]
                if not cu:
                    e = True
                elif len(cu) <= len(cv):
                    i = 0
                    e = True
                    for c in cu:
                        subc = sub[c]
                        while i < len(cv) and not subc[cv[i]]:
                            i += 1
                        if i == len(cv):
                            e = False
                            break
                        i += 1
            emb[u][v] = e
            s = e
            if not s:
                subu = sub[u]
                for d in cv:
                    if subu[d]:
                        s = True
                        break
            sub[u][v] = s
    return emb, sub


def embeds(t1: PlaneTree, t2: PlaneTree) -> bool:
    """Decide whether ``t1`` has a homeomorphic embedding into ``t2``.

    The image of the root of ``t1`` may be any vertex of ``t2``: whatever
    lies above it can be pruned by leaf deletions and root removals.
    An embedding maps vertices injectively and keeps signs, so ``t2``
    needs at least as many vertices of each sign as ``t1``.
    """
    if abs(sum(t1.labels) - sum(t2.labels)) > t2.size - t1.size:
        return False
    emb, _ = _embedding_tables(t1, t2)
    row = emb[t1.root]
    return any(row)


def embed_witness(t1: PlaneTree, t2: PlaneTree) -> EmbeddingWitness | None:
    """Extract a deterministic witness, or ``None`` when no embedding exists.

    The anchor is the preorder-first vertex of ``t2`` hosting the root,
    sibling matches are resolved leftmost-first, and each child's image is
    the preorder-first feasible vertex of its assigned subtree.
    """
    emb, sub = _embedding_tables(t1, t2)
    root_row = emb[t1.root]
    anchor = next((v for v in t2.preorder() if root_row[v]), None)
    if anchor is None:
        return None

    vmap: list[int] = [-1] * t1.size
    paths: dict[int, tuple[int, ...]] = {}
    stack = [(t1.root, anchor)]
    while stack:
        u, v = stack.pop()
        vmap[u] = v
        cv = t2.children[v]
        i = 0
        for c in t1.children[u]:
            while not sub[c][cv[i]]:
                i += 1
            d = cv[i]
            i += 1
            w = next(x for x in _preorder_within(t2, d) if emb[c][x])
            paths[c] = _descending_path(t2, v, w)
            stack.append((c, w))

    edge_order = [v for v in t1.preorder() if v != t1.root]
    return EmbeddingWitness(tuple(vmap), tuple(paths[c] for c in edge_order))


def _preorder_within(t: PlaneTree, v: int):
    stack = [v]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(t.children[x]))


def _descending_path(t: PlaneTree, top: int, bottom: int) -> tuple[int, ...]:
    path = [bottom]
    while path[-1] != top:
        p = t.parents[path[-1]]
        if p is None:
            raise ValueError(f"{bottom} is not a descendant of {top}")
        path.append(p)
    path.reverse()
    return tuple(path)


def verify_witness(t1: PlaneTree, t2: PlaneTree, w: EmbeddingWitness) -> bool:
    """Check every witness invariant for the pair ``(t1, t2)`` from scratch."""
    n1, n2 = t1.size, t2.size
    vmap = w.vertex_map
    if len(vmap) != n1:
        return False
    if any(not (0 <= v < n2) for v in vmap):
        return False
    if len(set(vmap)) != n1:
        return False
    if any(t1.labels[u] != t2.labels[vmap[u]] for u in range(n1)):
        return False

    edge_order = [v for v in t1.preorder() if v != t1.root]
    if len(w.edge_paths) != len(edge_order):
        return False
    mapped = set(vmap)
    interiors: set[int] = set()
    first_step: dict[int, int] = {}
    for c, path in zip(edge_order, w.edge_paths):
        u = t1.parents[c]
        if len(path) < 2 or path[0] != vmap[u] or path[-1] != vmap[c]:
            return False
        for a, b in zip(path, path[1:]):
            if t2.parents[b] != a:
                return False  # not a strictly descending step
        inner = set(path[1:-1])
        if len(inner) != len(path) - 2:
            return False
        if inner & mapped or inner & interiors:
            return False
        interiors |= inner
        first_step[c] = path[1]

    # Plane order: at each mapped vertex the entered children subtrees of
    # the image must appear in the order of the corresponding children.
    # The descending-step check above already forces each first step to be
    # a child of the image vertex.
    for u in range(n1):
        kids = t1.children[u]
        if len(kids) < 2:
            continue
        positions = {d: i for i, d in enumerate(t2.children[vmap[u]])}
        entry = [positions[first_step[c]] for c in kids]
        if any(a >= b for a, b in zip(entry, entry[1:])):
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force oracle: breadth-first closure of the reduction operations.
# ---------------------------------------------------------------------------


def operation_closure(t: PlaneTree, max_size: int = DEFAULT_ORACLE_GUARD) -> frozenset[str]:
    """Canonical texts of every tree reachable from ``t`` by the reductions.

    ``t`` itself is included (the empty sequence of operations).  The
    guard bounds the search seed: closures are only explored for trees
    with at most ``max_size`` vertices.
    """
    if t.size > max_size:
        raise ValueError(
            f"operation-closure guard exceeded: tree has {t.size} vertices, "
            f"guard is {max_size}"
        )
    seen = {t.text}
    frontier = [t]
    while frontier:
        for text in _reduction_texts(frontier.pop()):
            if text not in seen:
                seen.add(text)
                frontier.append(parse(text))
    return frozenset(seen)


def oracle_embeds(t1: PlaneTree, t2: PlaneTree, max_size: int = DEFAULT_ORACLE_GUARD) -> bool:
    """Decide embedding by exhaustive reachability; exponential, small inputs only."""
    return t1.text in operation_closure(t2, max_size)
