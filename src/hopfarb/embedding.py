"""Homeomorphic embedding of signed plane trees.

``T1`` embeds into ``T2`` when ``T1`` is reachable from ``T2`` by
iterated :func:`hopfarb.trees.remove_vertex`, which removes a vertex
with at most one child and keeps the signs and plane (left-to-right)
order of the rest.  Equivalently, there is an injection of the vertices
of ``T1`` into those of ``T2`` preserving signs, sending edges to
vertex-disjoint strictly descending paths, and entering the children
subtrees of each image in the order of the corresponding children.

Two deciders are provided: a polynomial dynamic program (`embeds`, with
certificate extraction via `embed_witness`) and a brute-force closure
search over the reduction operations (`oracle_embeds`), kept independent
so each can cross-validate the other.  `verify_witness` checks a
certificate from scratch: a strictly descending path between two
vertices is unique, so each edge path must be the walk up ``T2.parents``
from the child's image to its parent's image, read downwards.

The program keeps, per vertex ``u`` of ``T1``, the ascending list of the
vertices of ``T2`` that host ``u``, from ``T2.signed``.  In preorder the
subtree of ``v`` is ``range(v, T2.end[v])``, so whether a child of ``u``
has a host in a run of child subtrees is one bisection of its list.
Memory stays linear in the host per vertex of ``T1``: hosts of 10^5
vertices are in reach.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .trees import PlaneTree, reductions

__all__ = [
    "EmbeddingWitness",
    "embeds",
    "embed_witness",
    "verify_witness",
    "oracle_embeds",
    "operation_closure",
]


@dataclass(frozen=True)
class EmbeddingWitness:
    """Certificate that a tree embeds into another.

    ``vertex_map[u]`` is the image in ``T2`` of vertex ``u`` of ``T1``.
    ``edge_paths`` holds, for each edge parent -> child of ``T1`` (ordered
    by the child's index), the strictly descending path in ``T2``
    from the parent's image to the child's image, endpoints included.
    """

    vertex_map: tuple[int, ...]
    edge_paths: tuple[tuple[int, ...], ...]

    def to_json_obj(self) -> dict:
        return {
            "vertex_map": [[u, v] for u, v in enumerate(self.vertex_map)],
            "edge_paths": [list(p) for p in self.edge_paths],
        }


def _rows(t1: PlaneTree, t2: PlaneTree) -> list[list[int]] | None:
    """Host lists: ``sub[u]`` is the ascending list of vertices of ``t2`` hosting ``u``.

    ``v`` hosts ``u`` when the subtree at ``u`` embeds with ``u`` mapped to
    ``v``: the signs agree and the children of ``u`` go, in order, into
    distinct children subtrees of ``v``.  The leftmost-feasible greedy is
    complete: each child takes its first host from the next free child
    subtree on (``t2.end`` bounds each), found by bisection.  The root's
    list stops at its first host.  ``None`` at the first empty list, or
    when ``t1.signed`` has more vertices of one sign than ``t2.signed``
    (an embedding is injective and keeps signs).
    """
    signed1, signed2, end2 = t1.signed, t2.signed, t2.end
    if len(signed1[1]) > len(signed2[1]) or len(signed1[-1]) > len(signed2[-1]):
        return None
    ch1, lab1, ch2 = t1.children, t1.labels, t2.children
    sub: list = [None] * len(t1.labels)
    for u in range(len(t1.labels) - 1, -1, -1):  # children first
        if not ch1[u]:
            hosts = signed2[lab1[u]]
        else:
            rows = [sub[c] for c in ch1[u]]
            need = len(rows)
            hosts = []
            for v in signed2[lab1[u]]:
                cv = ch2[v]
                if len(cv) < need:
                    continue
                lo, e = v + 1, end2[v]
                for row in rows:
                    j = bisect_left(row, lo)
                    if j == len(row) or row[j] >= e:
                        break
                    lo = end2[cv[bisect_right(cv, row[j]) - 1]]  # past that child subtree
                else:
                    hosts.append(v)
                    if not u:
                        break
        if not hosts:
            return None
        sub[u] = hosts
    return sub


def embeds(t1: PlaneTree, t2: PlaneTree) -> bool:
    """Decide whether ``t1`` has a homeomorphic embedding into ``t2``.

    The image of the root of ``t1`` may be any vertex of ``t2``: whatever
    lies above it can be pruned by removing leaves and single-child roots.
    """
    return _rows(t1, t2) is not None


def embed_witness(t1: PlaneTree, t2: PlaneTree) -> EmbeddingWitness | None:
    """Extract a deterministic witness, or ``None`` when no embedding exists.

    The anchor is the first vertex of ``t2`` (in preorder, which is index
    order) hosting the root, sibling matches are resolved leftmost-first,
    and each child's image is the first host in preorder of its assigned
    subtree.
    """
    sub = _rows(t1, t2)
    if sub is None:
        return None
    end2, ch2, par2 = t2.end, t2.children, t2.parents
    vmap: list[int] = [-1] * t1.size
    paths: list[tuple[int, ...]] = [()] * t1.size
    stack = [(t1.root, sub[t1.root][0])]
    while stack:
        u, v = stack.pop()
        vmap[u] = v
        cv, lo = ch2[v], v + 1
        for c in t1.children[u]:
            w = sub[c][bisect_left(sub[c], lo)]
            lo = end2[cv[bisect_right(cv, w) - 1]]
            path = [w]
            while path[-1] != v:
                path.append(par2[path[-1]])
            paths[c] = tuple(reversed(path))
            stack.append((c, w))
    return EmbeddingWitness(tuple(vmap), tuple(paths[1:]))


def verify_witness(t1: PlaneTree, t2: PlaneTree, w: EmbeddingWitness) -> bool:
    """Check every witness invariant for the pair ``(t1, t2)`` from scratch.

    Images are distinct vertices of ``t2`` with their preimages' signs.
    The path into ``c`` must be the walk up ``t2.parents`` from the image
    of ``c`` to its parent's image, read downwards; a walk that reaches
    the root first fails.  Path interiors avoid the images and each
    other, and the first steps of siblings ascend.  An entry that is no
    vertex, or not exactly an ``int`` (``True``, ``1.0``), gives ``False``.
    """
    n1, vmap = t1.size, w.vertex_map
    if any(type(x) is not int for seq in (vmap, *w.edge_paths) for x in seq):
        return False
    used = set(vmap)  # images, then path interiors
    if len(vmap) != n1 or len(used) != n1 or len(w.edge_paths) != n1 - 1:
        return False
    if any(v not in range(t2.size) or t1.labels[u] != t2.labels[v] for u, v in enumerate(vmap)):
        return False
    first_step = [0] * n1
    for c, path in zip(range(1, n1), w.edge_paths):  # every vertex but the root
        top, walk = vmap[t1.parents[c]], [vmap[c]]
        while walk[-1] != top:
            if walk[-1] == t2.root:
                return False  # the parent's image is not an ancestor
            walk.append(t2.parents[walk[-1]])
        walk.reverse()
        if list(path) != walk or used.intersection(walk[1:-1]):
            return False
        used.update(walk[1:-1])
        first_step[c] = walk[1]
    # Each first step is a child of the parent's image, and children are
    # in index order: the plane order compares the steps themselves.
    return all(first_step[a] < first_step[b] for ks in t1.children for a, b in zip(ks, ks[1:]))


# ---------------------------------------------------------------------------
# Brute-force oracle: the closure of the one-vertex reductions.
# ---------------------------------------------------------------------------


def operation_closure(t: PlaneTree) -> frozenset[str]:
    """Canonical texts of every tree reachable from ``t`` by the reductions.

    ``t`` itself is included (the empty sequence of operations).  These
    are all the trees that embed into ``t``, exponentially many in
    ``t.size`` in general, so keep ``t`` small.  The search walks
    :func:`hopfarb.trees.reductions` and keeps trees by value, so each
    reached tree's text is written once, at the end.
    """
    seen = {t}
    frontier = [t]
    while frontier:
        for r in reductions(frontier.pop()):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return frozenset(r.text for r in seen)


def oracle_embeds(t1: PlaneTree, t2: PlaneTree) -> bool:
    """Decide embedding by exhaustive reachability; exponential, small inputs only."""
    return t1.text in operation_closure(t2)
