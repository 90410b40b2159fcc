"""Seeded benchmark inputs, built without calling into hopfarb.

Shapes are uniform plane trees drawn by the cycle lemma and signs are
independent fair bits.  A tree is kept as a preorder parent array plus
signs, so the checkers can compute reference answers from it; the
program only ever receives the canonical text.

``hopfarb.random_tree`` is deliberately not used: it unranks against a
table of O(n^2) integers of up to 2n bits, which does not scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Tree:
    """Signed plane tree with vertices numbered in preorder, root 0."""

    parents: tuple[int, ...]  # parent of each vertex, -1 for the root
    signs: tuple[int, ...]  # +1 or -1

    @property
    def size(self) -> int:
        return len(self.parents)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.parents]
        for v, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(v)
        return kids

    def text(self) -> str:
        """Canonical text in hopfarb's grammar, e.g. ``+(-,+(+))``."""
        kids = self.children()
        out: list[str] = []
        stack: list[int | str] = [0]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append("+" if self.signs[item] > 0 else "-")
            if kids[item]:
                out.append("(")
                stack.append(")")
                for i, c in enumerate(reversed(kids[item])):
                    stack.append(c)
                    if i < len(kids[item]) - 1:
                        stack.append(",")
        return "".join(out)


def rng_for(seed: int, stream: int) -> random.Random:
    """Independent deterministic stream ``stream`` of the run seeded ``seed``."""
    return random.Random(seed * 1_000_003 + stream)


def random_tree(rng: random.Random, n: int) -> Tree:
    """Uniform signed plane tree with ``n`` vertices.

    Cycle lemma: a shuffled walk of n-1 up-steps and n down-steps has
    exactly one rotation that stays non-negative until its last step;
    dropping that step leaves a uniform Dyck word, read as the preorder
    walk of the root's children forest.
    """
    steps = [1] * (n - 1) + [-1] * n
    rng.shuffle(steps)
    level, low, start = 0, 0, 0
    for i, s in enumerate(steps):
        level += s
        if level < low:
            low, start = level, i + 1
    walk = steps[start:] + steps[:start]
    parents = [-1]
    cur = 0
    for s in walk[:-1]:
        if s > 0:
            parents.append(cur)
            cur = len(parents) - 1
        else:
            cur = parents[cur]
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    return Tree(tuple(parents), signs)


def matching_number(t: Tree) -> int:
    """Maximum matching size, by greedy leaf-first matching (exact on trees)."""
    matched = [False] * t.size
    m = 0
    for v in range(t.size - 1, 0, -1):  # children precede parents in reverse preorder
        p = t.parents[v]
        if not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            m += 1
    return m


def from_text(text: str) -> Tree:
    """Parse canonical tree text (no whitespace) back into a :class:`Tree`."""
    parents: list[int] = []
    signs: list[int] = []
    stack: list[int] = []
    last = -1
    for ch in text:
        if ch in "+-":
            parents.append(stack[-1] if stack else -1)
            signs.append(1 if ch == "+" else -1)
            last = len(parents) - 1
        elif ch == "(":
            stack.append(last)
        elif ch == ")":
            stack.pop()
    return Tree(tuple(parents), tuple(signs))


def unrooted_form(t: Tree) -> str:
    """Canonical string of ``t`` as an unrooted, unordered signed tree.

    AHU encoding rooted at each centre, keeping the lexicographically
    smallest.  Equal strings mean the trees differ only in root and plane
    order, which no invariant of the plumbed surface sees.
    """
    n = t.size
    adj: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(t.parents):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return min(_rooted_code(t.signs, adj, c) for c in layer)


def _rooted_code(signs, adj, root: int) -> str:
    order, parent = [root], {root: -1}
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: dict[int, str] = {}
    for v in reversed(order):
        inner = sorted(code[w] for w in adj[v] if w != parent[v])
        code[v] = ("+" if signs[v] > 0 else "-") + "(" + "".join(inner) + ")"
    return code[root]
