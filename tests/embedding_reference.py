"""The embedding DP as full tables over every vertex pair, kept as a test oracle.

The library keeps one row per vertex of the smaller tree, takes leaf
rows from the host, and stops at the first vertex hosting the root.
This version fills both n1 x n2 tables, the root's included, in a
double loop over fresh preorders, and walks each subtree of the host in
preorder to place a child; it shares nothing with the library but the
:class:`PlaneTree` fields and the :class:`EmbeddingWitness` record.
"""

from hopfarb.embedding import EmbeddingWitness


def tables(t1, t2):
    """``emb[u][v]``: ``u`` maps exactly to ``v``; ``sub[u][v]``: to ``v`` or below."""
    lab1, lab2 = t1.labels, t2.labels
    ch1, ch2 = t1.children, t2.children
    emb = [[False] * t2.size for _ in range(t1.size)]
    sub = [[False] * t2.size for _ in range(t1.size)]
    order1 = range(t1.size)
    for v in reversed(range(t2.size)):
        cv = ch2[v]
        for u in reversed(order1):
            e = False
            if lab1[u] == lab2[v] and len(ch1[u]) <= len(cv):
                i = 0
                e = True
                for c in ch1[u]:
                    while i < len(cv) and not sub[c][cv[i]]:
                        i += 1
                    if i == len(cv):
                        e = False
                        break
                    i += 1
            emb[u][v] = sub[u][v] = e
            for d in cv:
                if sub[u][d]:
                    sub[u][v] = True
    return emb, sub


def preorder_within(t, v):
    stack = [v]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(t.children[x]))


def descending_path(t, top, bottom):
    path = [bottom]
    while path[-1] != top:
        path.append(t.parents[path[-1]])
    return tuple(reversed(path))


def embeds(t1, t2):
    return embed_witness(t1, t2) is not None


def embed_witness(t1, t2):
    """The witness of the library's contract: preorder-first anchor and images."""
    if t1.size > t2.size:
        return None
    emb, sub = tables(t1, t2)
    anchor = next((v for v in range(t2.size) if emb[t1.root][v]), None)
    if anchor is None:
        return None
    vmap = [-1] * t1.size
    paths = {}
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
            w = next(x for x in preorder_within(t2, d) if emb[c][x])
            paths[c] = descending_path(t2, v, w)
            stack.append((c, w))
    edge_order = [v for v in range(t1.size) if v != t1.root]
    return EmbeddingWitness(tuple(vmap), tuple(paths[c] for c in edge_order))
