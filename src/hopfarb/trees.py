"""Signed plane trees and the reduction that orders them.

A plane tree here is a rooted tree in which every vertex carries a sign
(+1 or -1) and the children of every vertex are linearly ordered.  Such a
tree encodes an iterated plumbing of Hopf bands: one band per vertex, one
plumbing square per edge.  This module provides the textual grammar for
these trees, exhaustive enumeration, uniform random sampling, and the
one reduction that generates the homeomorphic-embedding quasi-order:
:func:`remove_vertex` removes a vertex with at most one child, which
deletes a leaf, strips a single-child root, or merges the two edges at
any other single-child vertex into one.

Grammar::

    Tree     := Sign Children?
    Sign     := '+' | '-'
    Children := '(' Tree (',' Tree)* ')'

Whitespace may appear between tokens.  The canonical text of a tree is the
same grammar with no whitespace; two trees are equal exactly when their
canonical texts are.

:class:`PlaneTree` is the one tree representation, and its vertices are
always numbered in preorder: vertex ``v`` is the ``v``-th sign of the
canonical text.  Removing a vertex keeps the preorder of the others, so
each reduction is one map on the preorder arrays, and :mod:`hopfarb.minors`
finds every tree's reductions by index arithmetic on the enumeration
below.  :func:`parse` reads only text it is given.  Nothing here
recurses, so tree depth and size are bounded by memory alone.
``enumerate_trees`` builds
and checks one tree per shape, after an unranking walk of O(n) steps on
O(n)-bit integers (O(n^2) bit operations: its first tree takes about
0.1 s at n = 10^4 and 10 s at n = 10^5 on a shared 2-core host).  It
stamps the shape's 2^n trees from that one, unchecked: they share its
``parents``, ``children`` and ``end``, and fill its text with their signs.
Mining stamps only the sign words it tests.
:func:`tree_to_json` writes JSON text in one pass over the canonical text,
at any depth; reading it back goes through ``json.loads`` (which recurses
per tree level, to about 500) and then :func:`tree_from_json_obj`.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb
from typing import ClassVar, Iterator

__all__ = [
    "PlaneTree",
    "TreeSyntaxError",
    "parse",
    "enumerate_trees",
    "count",
    "unrank",
    "remove_vertex",
    "reductions",
    "random_tree",
    "tree_to_json",
    "tree_from_json_obj",
]

POSITIVE = 1
NEGATIVE = -1

_SIGN_CHAR = {POSITIVE: "+", NEGATIVE: "-"}
_CHAR_SIGN = {"+": POSITIVE, "-": NEGATIVE}


class TreeSyntaxError(ValueError):
    """Malformed tree text; ``offset`` is the 0-based position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


@dataclass(frozen=True)
class PlaneTree:
    """A rooted, ordered tree with vertices signed +1 or -1, numbered in preorder.

    Vertices are the indices ``0 .. n-1`` in preorder: vertex 0 is the
    root, and each later vertex is a child of a vertex on the path from
    the root to the vertex before it.  ``labels[v]`` is the sign of
    ``v`` and ``parents[v]`` its parent (``None`` for the root); the
    constructor rejects any other numbering.  ``children[v]`` lists the
    children of ``v`` left to right, which is index order.

    One tree has one numbering, so equal values (the two fields compare
    and hash) are isomorphic labelled plane trees with the same vertex
    names, and vertex ``v`` carries the ``v``-th sign of ``text``.  No
    operation recurses over the tree.
    """

    labels: tuple[int, ...]
    parents: tuple[int | None, ...]
    root: ClassVar[int] = 0

    def __post_init__(self):
        if type(self.labels) is not tuple:  # a list would compare unequal and not hash
            object.__setattr__(self, "labels", tuple(self.labels))
        if type(self.parents) is not tuple:
            object.__setattr__(self, "parents", tuple(self.parents))
        n = len(self.labels)
        if n == 0:
            raise ValueError("a plane tree has at least one vertex")
        if len(self.parents) != n:
            raise ValueError("labels and parents must have equal length")
        if not set(map(type, self.labels)) <= {int} or not set(self.labels) <= {POSITIVE, NEGATIVE}:
            raise ValueError("labels must be the ints +1 or -1")
        if self.parents[0] is not None:
            raise ValueError("vertex 0 is the root and has no parent")
        path = [0]  # from the root to the previous vertex
        for v in range(1, n):
            p = self.parents[v]
            if type(p) is not int:  # 0.0 or True would pass the path test below
                raise ValueError(f"the parent of vertex {v} must be an int, got {p!r}")
            while path and path[-1] != p:
                path.pop()
            if not path:
                raise ValueError(f"vertices are not in preorder at vertex {v} (parent {p!r})")
            path.append(v)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """``children[v]``: the children of ``v`` in index order."""
        kids: list[list[int]] = [[] for _ in self.parents]
        for v in range(1, len(kids)):
            kids[self.parents[v]].append(v)  # type: ignore[index]
        return tuple(map(tuple, kids))

    @cached_property
    def text(self) -> str:
        """Canonical text: the grammar with no whitespace."""
        # Between vertex v-1 and v the text opens v-1's children, or
        # closes back up to v's depth and starts a sibling.
        depth = [0] * self.size
        out = [_SIGN_CHAR[self.labels[0]]]
        for v in range(1, self.size):
            p = self.parents[v]
            depth[v] = depth[p] + 1  # type: ignore[index]
            out.append("(" if p == v - 1 else ")" * (depth[v - 1] - depth[v]) + ",")
            out.append(_SIGN_CHAR[self.labels[v]])
        out.append(")" * depth[-1])
        return "".join(out)

    @cached_property
    def end(self) -> tuple[int, ...]:
        """The subtree of ``v`` is ``range(v, end[v])``; trees of one shape share it."""
        end = list(range(1, self.size + 1))
        for v in range(self.size - 1, 0, -1):  # descendants come later in preorder
            p = self.parents[v]
            end[p] = max(end[p], end[v])  # type: ignore[index]
        return tuple(end)

    @cached_property
    def signed(self) -> dict[int, list[int]]:
        """``signed[s]``: the vertices of sign ``s`` in preorder.  Do not modify."""
        return {s: [v for v, l in enumerate(self.labels) if l == s] for s in (POSITIVE, NEGATIVE)}

    def __repr__(self):
        return f"PlaneTree({self.text!r})"


def parse(text: str) -> PlaneTree:
    """Parse tree text into a :class:`PlaneTree` (preorder-numbered).

    Raises :class:`TreeSyntaxError` with the offending 0-based offset on
    malformed input, including empty input and trailing garbage.  The
    tree's ``text`` is the input without its whitespace, which is the
    canonical text; whitespace-free input is kept as it is.
    """
    labels: list[int] = []
    parents: list[int | None] = []
    open_: list[int] = []  # vertices whose '(' is not yet closed
    last = ","  # the last token; a sign is due at the start and after ',' or '('
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if last in ",(":
            if ch not in _CHAR_SIGN:
                raise TreeSyntaxError(f"expected '+' or '-', found {ch!r}", pos)
            labels.append(_CHAR_SIGN[ch])
            parents.append(open_[-1] if open_ else None)
        elif ch == "(" and last != ")":
            open_.append(len(labels) - 1)
        elif not open_:
            raise TreeSyntaxError(f"unexpected trailing input {ch!r}", pos)
        elif ch == ")":
            open_.pop()
        elif ch != ",":
            raise TreeSyntaxError("expected ',' or ')'", pos)
        last = ch
    if last in ",(":
        raise TreeSyntaxError("expected '+' or '-'", len(text))
    if open_:
        raise TreeSyntaxError("expected ',' or ')'", len(text))
    t = PlaneTree(tuple(labels), tuple(parents))
    t.__dict__["text"] = "".join(text.split())  # where the cached property keeps it
    return t


# ---------------------------------------------------------------------------
# Enumeration.
#
# Trees with n vertices are listed shape-major:
#   * shapes are the balanced-parenthesis strings with n-1 pairs (the
#     children forest of the root, written preorder) in lexicographic
#     order with '(' < ')';
#   * within a shape, sign vectors run over the preorder vertices in
#     lexicographic order with '+' < '-'.
# The order is part of the contract: golden files and the universe
# indices of `hopfarb.minors` rely on it.  `_unrank_shape` is its one
# walk: `enumerate_trees` runs it on every shape rank, `unrank` (and so
# `random_tree`) on one; all three check their size through `count`.
# ---------------------------------------------------------------------------


def count(n: int) -> int:
    """Number of signed plane trees with ``n`` vertices: 2^n * Catalan(n-1)."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    try:
        return comb(2 * (n - 1), n - 1) // n << n  # Catalan(n-1) * 2^n
    except OverflowError as exc:  # comb refuses n - 1 > sys.maxsize
        raise ValueError(f"tree size {n} is too large") from exc


def _unrank_shape(n: int, rank: int) -> tuple[int | None, ...]:
    # The parents of the rank-th shape with n vertices, built while its
    # word is walked: '(' enters a new child of the current vertex, ')'
    # returns.  From r remaining characters with balance b and
    # o = (r - b) / 2 opens left, the balanced completions number
    # comb(r, o) - comb(r, o - 1) = comb(r, o) * (b + 1) / (r - o + 1)
    # (ballot numbers).  Only w = comb(r, o) is kept, updated exactly at
    # each step, so a walk costs O(n) operations on O(n)-bit integers.
    parents: list[int | None] = [None]
    cur = 0
    balance, opens, r = 0, n - 1, 2 * (n - 1)
    w = comb(r, opens)
    while r:
        w_open = w * opens // r  # comb(r - 1, opens - 1)
        c_open = w_open * (balance + 2) // (r - opens + 1)
        if rank < c_open:
            parents.append(cur)
            cur = len(parents) - 1
            w, balance, opens = w_open, balance + 1, opens - 1
        else:
            rank -= c_open
            cur = parents[cur]  # type: ignore[assignment]
            w, balance = w * (r - opens) // r, balance - 1
        r -= 1
    return tuple(parents)


def _shapes(n: int) -> Iterator[PlaneTree]:
    # The all-'+' tree of each of the Catalan(n-1) shapes, checked, by rank.
    return (PlaneTree((POSITIVE,) * n, _unrank_shape(n, rank)) for rank in range(count(n) >> n))


def _sign_words(n: int) -> Iterator[tuple[tuple[int, ...], tuple[str, ...]]]:
    # (labels, sign characters) of each sign word with n vertices, in order.
    return zip(product((POSITIVE, NEGATIVE), repeat=n), product("+-", repeat=n))


def _stamped(shape: PlaneTree, words) -> Iterator[PlaneTree]:
    # The trees of ``shape`` with the given ``_sign_words`` entries.
    parents, children, end = shape.parents, shape.children, shape.end
    template = shape.text.replace("+", "%s")  # one slot per vertex, in preorder
    for labels, signs in words:
        t = object.__new__(PlaneTree)  # no __post_init__: the shape is checked
        d = t.__dict__  # where the fields and cached properties live
        d["labels"], d["parents"], d["children"], d["end"] = labels, parents, children, end
        d["text"] = template % signs
        yield t


def enumerate_trees(n: int) -> Iterator[PlaneTree]:
    """Yield every signed plane tree with exactly ``n`` vertices once.

    The sequence is deterministic in the documented shape-major order and
    has length ``count(n)``; its ``i``-th tree is ``unrank(n, i)``.  Each
    tree is stamped from its checked shape (see the module docstring).
    """
    for shape in _shapes(n):
        yield from _stamped(shape, _sign_words(n))


def unrank(n: int, idx: int) -> PlaneTree:
    """The ``idx``-th element of ``enumerate_trees(n)`` without iteration.

    Lets callers restart or partition the enumeration: any slice of
    ``range(count(n))`` can be reconstructed independently.
    """
    if not (0 <= idx < count(n)):
        raise ValueError(f"index {idx} out of range for size {n}")
    shape_idx, bits = divmod(idx, 1 << n)
    parents = _unrank_shape(n, shape_idx)
    labels = tuple(NEGATIVE if (bits >> (n - 1 - i)) & 1 else POSITIVE for i in range(n))
    return PlaneTree(labels, parents)


def random_tree(n: int, seed: int) -> PlaneTree:
    """A tree drawn uniformly from ``enumerate_trees(n)``, deterministic in ``seed``."""
    return unrank(n, _random.Random(seed).randrange(count(n)))


# ---------------------------------------------------------------------------
# The reduction: remove one vertex v that has at most one child, the next
# vertex in preorder if any.  On the preorder arrays v's entries go, its
# child takes v's parent, and every later index moves down by one.
# ---------------------------------------------------------------------------


def _without(parents: tuple[int | None, ...], v: int) -> tuple[int | None, ...]:
    # ``parents`` without the vertex ``v``, which has at most one child.
    p = parents[v]
    return parents[:v] + tuple(p if u == v else u - (u > v) for u in parents[v + 1 :])


def _removable(t: PlaneTree) -> list[int]:
    # The vertices that `remove_vertex` accepts, in the order of `reductions`.
    kids = t.children
    removable = [v for v in range(t.size) if not kids[v]] if t.size > 1 else []
    if len(kids[t.root]) == 1:
        removable.append(t.root)
    return removable + [c for u in range(t.size) for c in kids[u] if len(kids[c]) == 1]


def remove_vertex(t: PlaneTree, v: int) -> PlaneTree:
    """``t`` without the vertex ``v``, which has at most one child.

    A leaf goes with its parent edge.  The only child of ``v`` takes the
    slot of ``v`` among its siblings, or becomes the root when ``v`` is
    the root.  Every other vertex keeps its sign and its sibling order.
    Raises ``ValueError`` when ``v`` is not an ``int`` (``True`` and
    ``1.0`` are refused), is out of range, or has two or more children,
    and when ``t`` has one vertex.
    """
    if type(v) is not int:
        raise ValueError(f"a vertex must be an int, got {v!r}")
    if not 0 <= v < t.size:
        raise ValueError(f"vertex {v} out of range for a tree of {t.size} vertices")
    if len(t.children[v]) > 1:
        raise ValueError(f"vertex {v} has {len(t.children[v])} children, expected at most 1")
    if t.size == 1:
        raise ValueError("cannot remove the only vertex of a tree")
    return PlaneTree(t.labels[:v] + t.labels[v + 1 :], _without(t.parents, v))


def reductions(t: PlaneTree) -> Iterator[PlaneTree]:
    """``remove_vertex(t, v)`` for every vertex ``v`` that it accepts.

    Yields the removal of each leaf by index, then of a single-child
    root, then of each other single-child vertex by parent, possibly
    with repeats.  The reflexive-transitive closure of this step is the
    embedding order.
    """
    return (remove_vertex(t, v) for v in _removable(t))


# ---------------------------------------------------------------------------
# JSON form: {"label": "+"|"-", "children": [...]} nested to the tree's depth.
# A sign opens an object and its children, ')' and ',' close a child, '(' writes nothing.
# ---------------------------------------------------------------------------

_JSON = str.maketrans(
    {s: f'{{"label":"{s}","children":[' for s in "+-"} | {"(": "", ")": "]}", ",": "]},"}
)


def tree_to_json(t: PlaneTree) -> str:
    """The tree as compact JSON text, written from its canonical text in one pass."""
    return t.text.translate(_JSON) + "]}"  # the root's close


def tree_from_json_obj(obj: dict) -> PlaneTree:
    """The tree of a decoded JSON object, as written by :func:`tree_to_json`.

    Each node is a dict with ``"label"`` ``"+"`` or ``"-"`` and an optional
    ``"children"`` list of nodes, read as empty when missing; other keys
    are ignored.  Raises ``ValueError`` when a node is not a dict, its
    label is missing or not ``"+"``/``"-"``, or its children are not a list.
    """
    labels: list[int] = []
    parents: list[int | None] = []
    stack: list[tuple[dict, int | None]] = [(obj, None)]
    while stack:
        node, parent = stack.pop()
        if not isinstance(node, dict):
            raise ValueError(f"a tree node must be an object, got {type(node).__name__}")
        label, kids = node.get("label"), node.get("children", [])
        if label not in ("+", "-"):  # a tuple, so an unhashable label is no TypeError
            raise ValueError(f"invalid label {label!r}")
        if not isinstance(kids, list):
            raise ValueError(f"children must be a list, got {type(kids).__name__}")
        labels.append(_CHAR_SIGN[label])
        parents.append(parent)
        v = len(labels) - 1
        stack.extend((kid, v) for kid in reversed(kids))
    return PlaneTree(tuple(labels), tuple(parents))
