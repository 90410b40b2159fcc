"""The minor quasi-order over bounded universes of signed plane trees.

The embedding relation of :mod:`hopfarb.embedding` is a well-quasi-order,
so any property closed under taking minors is characterized by a finite
obstruction set.  Those obstruction sets are not explicit in general;
this module materializes the order over all trees up to a size bound and
mines the minimal excluded trees of a predicate at that scale, which is a
lower approximation of the true obstruction set.  It also audits
quantities that are expected to be monotone along the order (genus,
Betti number) and groups same-size trees by their invariant fingerprint
as a stand-in for boundary-link equivalence.

The order is generated by :func:`hopfarb.trees.remove_vertex`, so the
trees of :func:`hopfarb.trees.reductions` are its covers.  One walk up
the shapes gives every sweep the covers: removing a vertex sends a
shape to a smaller one, found by its ``parents`` among those built and
confirmed by the embedding DP once per distinct reduced shape, and each
sign word to a sign word by index arithmetic; nothing is parsed, and
a tree's position comes from the tree counts per size.  The Hasse pairs
are the distinct covers, sorted; the relation table walks back down with
one bitset row per tree, its strict up-set, read bit by bit in output
order.  It grows quadratically with the universe, so callers pick the
bound (6: about 3.2k trees).  An audit keeps one value per tree and no
trees, compares each tree with its covers, and builds the table only
when a cover fails.  Mining keeps an int per shape of two sizes, bit s for a
violator at or below sign word s, spread along each cover by shifts;
it builds a tree only for an unflagged word, where a violator is minimal.
Fingerprint classes compute one fingerprint per unrooted, unordered
signed tree and its mirror (98 pairs among the 2,688 trees of size 6):
the Seifert invariants of a plumbing see neither its root nor its plane
order, and the mirror, word 2^n-1-s of word s, only negates sigma.  Each
shape is hung from its one or two centres with children sorted by their
unsigned code, which gives its key as an unrooted tree and a canonical
vertex order.  Only the first shape of each such key (6 of the 42 shapes
of size 6, 23 of 429 at size 8) codes its sign words, column by column;
every other shape maps its words onto that one's by matching the two
orders.  Classes hold canonical texts, each filled into its shape's
template; a tree is built only for a word that gets fingerprinted.
All outputs are deterministic: trees in enumeration order, pair lists
lexicographically, mined families by canonical text.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterator

from .embedding import embeds
from .invariants import (
    betti,
    boundary_components,
    determinant,
    fingerprint,
    genus,
    signature,
    top_defect_upper_bound,
)
from .trees import (
    PlaneTree,
    _removable,
    _shapes,
    _sign_words,
    _stamped,
    _without,
    count,
    enumerate_trees,
)

__all__ = [
    "Universe",
    "PosetReport",
    "Predicate",
    "universe",
    "poset",
    "evaluate",
    "check_excluded_family",
    "minimal_excluded",
    "audit_monotone",
    "fingerprint_classes",
    "poset_to_dot",
    "poset_to_csv",
]


@dataclass(frozen=True)
class Universe:
    """All signed plane trees with at most ``nmax`` vertices, enumeration order."""

    nmax: int
    trees: tuple[PlaneTree, ...]

    def __len__(self):
        return len(self.trees)


def _sizes(nmax: int) -> range:
    if nmax < 1:
        raise ValueError("universe bound must be >= 1")
    return range(1, nmax + 1)


def _trees(nmax: int) -> Iterator[PlaneTree]:
    return chain.from_iterable(map(enumerate_trees, _sizes(nmax)))


def universe(nmax: int) -> Universe:
    """Concatenation of ``enumerate_trees(k)`` for k = 1..nmax."""
    return Universe(nmax, tuple(_trees(nmax)))


@dataclass(frozen=True)
class PosetReport:
    """Explicit relation table of the embedding order over a universe.

    ``relation_pairs`` lists all (i, j) with ``trees[i]`` embedding into
    ``trees[j]`` and i != j, lexicographically; ``hasse_pairs`` is its
    transitive reduction.  ``stats`` counts trees per size and relation
    pairs per size pair (keys ``"si->sj"``).
    """

    relation_pairs: tuple[tuple[int, int], ...]
    hasse_pairs: tuple[tuple[int, int], ...]
    stats: dict


def _walk(sizes) -> Iterator[tuple[PlaneTree, list[tuple[int, int]]]]:
    """Each shape's all-'+' tree with its covers, for n in ``sizes`` (1, 2, ...).

    Tree i of size n is shape rank ``i >> n`` and sign word ``s = i & (2^n - 1)``,
    vertex v at bit n-1-v, '-' as 1.  Removing v keeps the other vertices'
    preorder: s goes to ``(s >> L+1) << L | s & (2^L - 1)`` with L = n-1-v,
    and the shape to a shape of size n-1.  So a cover is ``(R, L)``, R that
    shape's rank, in the order of :func:`hopfarb.trees.reductions`.  The
    DP runs once per distinct R, on that shape as yielded one size down,
    found by its ``parents``: up to size 6 that is 146 calls for the 274
    (shape, removable vertex) pairs, and up to size 7 538 for 988.
    """
    here: list[PlaneTree] = []  # the shapes of this size, by rank
    for n in sizes:
        prev, here = here, list(_shapes(n))
        ranks = {shape.parents: R for R, shape in enumerate(prev)}
        for shape in here:
            covers, confirmed = [], {}
            for v in _removable(shape):
                R = ranks[_without(shape.parents, v)]
                # One DP call per shape and reduced shape cross-checks the reduction for
                # all sign words, and lets the benchmark's self-test flip ``minors.embeds``.
                if R not in confirmed:
                    confirmed[R] = embeds(prev[R], shape)
                if confirmed[R]:
                    covers.append((R, n - 1 - v))
            yield shape, covers


def _covers(nmax: int) -> Iterator[list[int]]:
    """The positions in ``universe(nmax)`` of each tree's covers, tree by tree.

    Size n starts at position ``count(1) + ... + count(n-1)``, and shape R of
    size n-1 at ``R << n-1`` from there, so each cover (R, L) of :func:`_walk`
    gives every sign word's cover position by index arithmetic; no tree is read.
    """
    n, prev, start = 1, 0, 0  # the size, and the positions of its first tree and of size n-1's
    for shape, covers in _walk(_sizes(nmax)):
        if shape.size != n:
            n, prev, start = shape.size, start, start + count(n)
        plan = [(prev + (r << n - 1), L, (1 << L) - 1) for r, L in covers]
        for s in range(1 << n):
            yield [base + (s >> L + 1 << L | s & low) for base, L, low in plan]


def _spread(flags: int, L: int, gaps: list[int]) -> int:
    """Flags of a size n-1 shape, bit per sign word, read by the 2^n words of size n.

    Bit s is bit ``(s >> L+1) << L | s & (2^L - 1)`` of ``flags``, so each
    run of 2^L bits is doubled: n-1-L shift-and-mask steps, widest runs
    first, open a gap after each run, and one shifted copy fills it.
    ``gaps[k]`` masks runs of 2^k ones, each followed by 2^k zeros.
    """
    for k in range(len(gaps) - 1, L - 1, -1):
        flags = (flags | flags << (1 << k)) & gaps[k]
    return flags | flags << (1 << L)


def _order(nmax: int) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """Hasse pairs and strict up-sets of the trees of ``universe(nmax)``, by a backward walk.

    The Hasse pairs are the distinct (cover, tree) pairs, lexicographically.
    Bit ``j`` of ``up[i]`` is set when ``trees[i]`` embeds strictly into
    ``trees[j]``.  Covers come earlier, so ``up[j]`` is complete when the
    walk reaches ``j``.
    """
    covers = list(_covers(nmax))
    up = [0] * len(covers)
    for j in range(len(covers) - 1, -1, -1):
        reach = 1 << j | up[j]
        for r in covers[j]:
            up[r] |= reach
    return tuple(sorted({(r, j) for j, c in enumerate(covers) for r in c})), up


def _pairs(rows: list[int]) -> Iterator[tuple[int, int]]:
    """``(i, j)`` for every set bit ``j`` of ``rows[i]``, lexicographically."""
    ids = list(range(max((r.bit_length() for r in rows), default=0)))  # one int per j
    for i, row in enumerate(rows):
        bits = bin(row)[:1:-1]  # bit j is character j
        j = bits.find("1")
        while j >= 0:
            yield i, ids[j]
            j = bits.find("1", j + 1)


def poset(u: Universe) -> PosetReport:
    """Compute the embedding relation and its Hasse diagram over ``u``.

    Same-size pairs are excluded by definition (i != j and equal sizes
    force equal trees).  The Hasse pairs are the one-vertex reductions.
    The rows grow quadratically with the universe.  On a shared 2-core
    host, bound 6 (3,238 trees) takes about 0.08 s and 22 MiB peak RSS in
    process (0.17 s and 27 MiB as a CLI run with both exports), bound 7
    (20,134 trees) about 0.9 s and 84 MiB (1.0 s and 139 MiB).
    """
    hasse, up = _order(u.nmax)
    pairs = tuple(_pairs(up))
    sizes = [t.size for t in u.trees]
    trees_per_size, spans, first = {n: count(n) for n in _sizes(u.nmax)}, [], 0
    for b, c in trees_per_size.items():  # the trees come size by size
        spans.append((b, first, (1 << c) - 1))  # size b: c bits of a row from bit first
        first += c
    per_size = {}  # keyed in the order pairs of each size pair are first met, row by row
    for a, row in zip(sizes, up):
        for b, first, mask in spans:
            if b > a and (c := (row >> first & mask).bit_count()):
                per_size[a, b] = per_size.get((a, b), 0) + c
    stats = {
        "trees": len(u.trees),
        "trees_per_size": trees_per_size,
        "relation_pairs": len(pairs),
        "hasse_pairs": len(hasse),
        "pairs_per_size": {f"{a}->{b}": c for (a, b), c in per_size.items()},
    }
    return PosetReport(pairs, hasse, stats)


# ---------------------------------------------------------------------------
# Predicate registry.
# ---------------------------------------------------------------------------

_REGISTRY = {  # name: (parameter count, knots only, test)
    "size_le": (1, False, lambda t, k: t.size <= k),
    "genus_le": (1, False, lambda t, k: genus(t) <= k),
    "all_positive": (0, False, lambda t: all(l == 1 for l in t.labels)),
    "sig_abs_le": (1, False, lambda t, k: abs(signature(t)) <= k),
    "det_le": (1, False, lambda t, k: determinant(t) <= k),
    "top_defect_ub_le": (1, True, lambda t, k: top_defect_upper_bound(t) <= k),
}


@dataclass(frozen=True)
class Predicate:
    """A named boolean property of trees from the registry.

    ``knots_only`` predicates are defined only on trees whose boundary is
    a knot; evaluating them elsewhere is a domain error.
    """

    name: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.name not in _REGISTRY:
            raise ValueError(f"unknown predicate {self.name!r}")
        if len(self.params) != _REGISTRY[self.name][0]:
            raise ValueError(f"wrong parameter count for predicate {self.name!r}: {self.params!r}")
        for k in self.params:
            if type(k) is not int:  # not isinstance: a bool is no parameter
                raise ValueError(f"predicate {self.name!r} needs an integer parameter, got {k!r}")

    @property
    def knots_only(self) -> bool:
        return _REGISTRY[self.name][1]

    @classmethod
    def parse(cls, spec: str) -> "Predicate":
        """Build from ``"name"`` or ``"name:k"`` notation."""
        name, sep, arg = spec.partition(":")
        if name not in _REGISTRY:
            raise ValueError(f"unknown predicate {name!r}")
        if not _REGISTRY[name][0]:
            if sep:
                raise ValueError(f"predicate {name!r} takes no parameter")
            return cls(name)
        if not arg:
            raise ValueError(f"predicate {name!r} requires a parameter, e.g. {name}:2")
        try:
            k = int(arg)
        except ValueError:
            k = arg  # the constructor rejects it
        return cls(name, (k,))


def evaluate(p: Predicate, t: PlaneTree) -> bool:
    """Evaluate a registry predicate on one tree."""
    if p.knots_only and boundary_components(t) != 1:
        raise ValueError(
            f"predicate {p.name!r} is defined for knots only; "
            f"{t.text!r} bounds a multi-component link"
        )
    return _REGISTRY[p.name][2](t, *p.params)


def check_excluded_family(t: PlaneTree, family) -> bool:
    """True iff no member of ``family`` embeds into ``t``."""
    return not any(embeds(f, t) for f in family)


def minimal_excluded(p: Predicate, nmax: int) -> list[PlaneTree]:
    """Minimal trees violating ``p`` within the universe of size ``nmax``.

    A violator is minimal when every strictly smaller tree embedding into
    it satisfies ``p``.  For a minor-monotone predicate the result is the
    obstruction set relative to this universe; completeness beyond the
    bound is not certified.  Sorted by canonical text.

    The order is generated by one-vertex reductions, so any violator
    strictly below a tree lies at or below one of its covers.  One walk up
    the shapes keeps one int per shape, bit s set when sign word s has a
    violator at or below it: a shape ORs its covers' ints (the reduced
    shape's, spread by :func:`_spread`), and only the words left unflagged
    are built as trees and tested, so a violator among them is minimal.
    This holds for any predicate, monotone or not, as a tree that
    satisfies ``p`` still passes its covers' flags up.  A knots-only
    predicate is not violated by a multi-component link, so its minimal
    violators are knots with no violating knot below them; links pass
    flags up too (every cover of a 4-vertex knot is one).  The embedding
    DP confirms each reduced shape once per shape, for all its sign words.
    """
    minimal: list[PlaneTree] = []
    n, below, layer = 0, [], []  # each shape's flags at the sizes n-1 and n: a violator at or below
    for shape, covers in _walk(_sizes(nmax)):
        if shape.size != n:
            n, below, layer = shape.size, layer, []
            words = list(_sign_words(n))
            full = (1 << (1 << n)) - 1
            gaps = [full // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1) for k in range(n - 1)]
        hit = 0
        for r, L in covers:
            hit |= _spread(below[r], L, gaps)
        bits = bin(~hit & full)[:1:-1]  # character s is 1 for a free word s
        free, s = [], bits.find("1")
        while s >= 0:
            free.append(s)
            s = bits.find("1", s + 1)
        for s, t in zip(free, _stamped(shape, map(words.__getitem__, free))):
            if not (p.knots_only and boundary_components(t) != 1) and not evaluate(p, t):
                minimal.append(t)
                hit |= 1 << s
        layer.append(hit)
    return sorted(minimal, key=lambda t: t.text)


_QUANTITIES = {"betti": betti, "genus": genus}


def audit_monotone(quantity: str, nmax: int) -> list[tuple[int, int]]:
    """Scan the relation over ``universe(nmax)`` for monotonicity failures.

    Returns the (i, j) universe index pairs where the quantity of the
    embedded tree exceeds that of its host.  Expected empty for both
    registered quantities: an embedding realizes the smaller surface as
    an incompressible subsurface of the larger one, which cannot raise
    genus, and it injects vertices, which cannot raise the Betti number.

    A failing pair has a failing cover on the chain of reductions between
    its trees, so each tree is first compared with its covers, and only a
    failing cover makes the scan walk the rows of :func:`poset`.  The
    universe is enumerated once, by one iterator that runs on past a
    failing cover, and never kept.  With no failure, bound 7 takes about
    0.11 s and 17 MiB in process on a shared 2-core host.
    """
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; expected one of {sorted(_QUANTITIES)}")
    q = _QUANTITIES[quantity]
    values, trees = [], _trees(nmax)
    for t, covers in zip(trees, _covers(nmax), strict=True):
        values.append(q(t))
        if any(values[c] > values[-1] for c in covers):
            break
    else:
        return []
    values += map(q, trees)  # the trees after the failing one
    _, up = _order(nmax)
    return [(i, j) for i, j in _pairs(up) if values[i] > values[j]]


def _centre_plan(parents: tuple[int | None, ...]) -> tuple[list[int], list, str, list[int]]:
    # ``(centres, steps, key, order)``: peeling leaves layer by layer ends at one or two
    # centres, and one walk hangs the shape from them; ``steps`` pairs each vertex that
    # has children so hung with them, children first.  Children and centres are sorted
    # by their unsigned AHU code: ``key`` joins the centres' codes, the shape's key as an
    # unrooted, unordered tree, and ``order`` lists its vertices in the preorder of that
    # code, so two shapes with one key map onto each other position by position.
    n = len(parents)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        adj[v].append(parents[v])  # type: ignore[arg-type]
        adj[parents[v]].append(v)  # type: ignore[index]
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
    order, parent = layer.copy(), [-1] * n
    parent[layer[0]], parent[layer[-1]] = layer[-1], layer[0]  # two centres hold a half each
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code = ["()"] * n
    below = [[v] for v in range(n)]  # each vertex's hung subtree in the preorder of its code
    steps = []
    for v in reversed(order):
        kids = sorted((w for w in adj[v] if w != parent[v]), key=code.__getitem__)
        if kids:
            steps.append((v, kids))
            code[v] = "(" + "".join(map(code.__getitem__, kids)) + ")"
            below[v] += chain.from_iterable(map(below.__getitem__, kids))
    centres = sorted(layer, key=code.__getitem__)
    key = "".join(map(code.__getitem__, centres))
    return centres, steps, key, list(chain.from_iterable(map(below.__getitem__, centres)))


def _word_map(order: list[int], onto: list[int]) -> list[int]:
    # Entry s is sign word s of a shape as a word of a shape with the same key: vertex
    # ``order[i]`` gives its bit to vertex ``onto[i]``.  One doubling per vertex, the
    # last vertex (bit 0) first, so the list reads the low bits of s.
    n = len(order)
    bit = [0] * n
    for v, w in zip(order, onto):
        bit[v] = 1 << n - 1 - w
    words = [0]
    for b in reversed(bit):
        words += [s + b for s in words]
    return words


def _keys(words, plan: tuple[list[int], list, str, list[int]]) -> list[str]:
    # Keys of ``words`` (label tuples of one shape) as unrooted, unordered signed trees:
    # AHU codes from the leaves up (sign, then the sorted codes of the children in
    # parentheses), one column over the words per vertex; the centres' codes sorted and
    # joined.  Codes are prefix-free, so equal keys mean equal trees up to root and order.
    centres, steps, _, _ = plan
    opens = [["+(" if l > 0 else "-(" for l in col] for col in zip(*words)]
    code = [[o + ")" for o in col] for col in opens]
    for v, kids in steps:
        if len(kids) == 1:  # no sort: a fifth of the key time at sizes 6 and 7
            code[v] = [o + c + ")" for o, c in zip(opens[v], code[kids[0]])]
        else:
            rows = zip(opens[v], *map(code.__getitem__, kids))
            code[v] = [o + "".join(sorted(cs)) + ")" for o, *cs in rows]
    return ["".join(sorted(cs)) for cs in zip(*map(code.__getitem__, centres))]


def fingerprint_classes(n: int) -> list[list[str]]:
    """Partition the size-``n`` trees by fingerprint equality.

    Each class is the sorted list of its trees' canonical texts, and the
    classes are ordered by their least text.  Fingerprints are incomplete
    link invariants, so a class may merge trees with non-isotopic boundaries.

    Each unrooted, unordered signed tree is fingerprinted once, which is
    exact: re-rooting or reordering a tree permutes the basis of its
    Seifert matrix ``V`` and moves some edges' unit to the other slot.
    Neither changes ``V + V^T``, nor the rank of ``V - V^T`` (a +-1
    diagonal congruence, as a tree has no cycles), and every edge
    contributes the same factor ``-t`` to ``det(V - t V^T)`` whichever
    slot holds its unit.  Of a tree and its mirror, every sign flipped,
    only one is fingerprinted: the mirror keeps n, b, g, det, nullity and
    the normalized Delta (each term of ``det(V - t V^T)`` scales by
    ``(-1)^n``), and negates sigma, as ``-(2E - A)`` is congruent to
    ``2E + A`` on a tree by the +-1 diagonal of its bipartition.

    Keys are coded once per unrooted tree, on the first plane shape with
    its shape key; every later shape sends its words there through
    :func:`_word_map`.  At size 8 the call takes about 0.55 s and 27 MiB
    peak RSS in process on a shared 2-core host.
    """
    shapes = _shapes(n)  # checks n before anything is built
    words = list(_sign_words(n))
    labels, signs = zip(*words)
    groups, of_key = {}, {}  # the texts of each fingerprint, and the group of each key met
    first = {}  # shape key: the first such shape's order, and the group of each of its words
    for shape in shapes:
        plan = _centre_plan(shape.parents)
        _, _, shape_key, order = plan
        if shape_key not in first:
            keys = _keys(labels, plan)
            # Word 2^n-1-s flips every sign of word s, so its key is the mirror's.
            for s, (key, mirror) in enumerate(zip(keys, reversed(keys))):
                if key not in of_key:
                    fp = fingerprint(*_stamped(shape, (words[s],)))
                    of_key[key] = groups.setdefault(fp, [])
                    of_key[mirror] = groups.setdefault(replace(fp, signature=-fp.signature), [])
            first[shape_key] = order, list(map(of_key.__getitem__, keys))
        onto, group = first[shape_key]
        texts = map(shape.text.replace("+", "%s").__mod__, signs)  # as ``_stamped`` writes them
        for s, text in zip(_word_map(order, onto), texts):
            group[s].append(text)
    return sorted(map(sorted, groups.values()))  # texts are distinct: by each class's least


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------


def poset_to_dot(u: Universe, report: PosetReport) -> str:
    """DOT digraph: vertices are canonical texts, edges the Hasse pairs."""
    lines = ["digraph minors {"]
    for t in u.trees:
        lines.append(f'  "{t.text}";')
    for i, j in report.hasse_pairs:
        lines.append(f'  "{u.trees[i].text}" -> "{u.trees[j].text}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_csv(report: PosetReport) -> str:
    """CSV of the full relation: header ``i,j`` then one pair per line."""
    lines = ["i,j"]
    lines.extend(f"{i},{j}" for i, j in report.relation_pairs)
    return "\n".join(lines) + "\n"
