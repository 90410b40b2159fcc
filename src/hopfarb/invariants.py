"""Seifert-matrix invariants of surfaces plumbed along signed plane trees.

Plumbing one Hopf band per vertex of a signed plane tree, one plumbing
square per edge, yields a fibred surface whose first homology is spanned
by the band cores, one generator per vertex.  The Seifert linking form on
that basis has the sign of the band on the diagonal and a single unit in
one of the two slots of each edge; which slot carried the unit is a basis
convention, since flipping generators realizes every slot pattern on a
tree.  The convention used here is fixed by two anchor values: the
positive Hopf band gives the 1x1 matrix [1], and the tree "+(+)" (the
right-handed trefoil fibre) has signature +2.

From the matrix V everything else is classical and computed exactly:

* Betti number ``n`` of the surface = number of bands,
* genus ``g = rank(V - V^T) / 2``, which on a tree is the matching
  number ``nu(T)`` (minimal over all Seifert surfaces, because the
  plumbed surface is a fibre),
* boundary components ``b = n - 2g + 1``,
* Alexander polynomial ``det(V - t V^T)``, normalized to lowest exponent
  0 and positive leading coefficient,
* signature and nullity of ``V + V^T``, which is congruent to
  ``2E + A(T)`` (E the diagonal of signs, A the adjacency matrix),
* link determinant ``|Delta(-1)| = |det(V + V^T)|``.

No floating point is used anywhere, and every invariant reads the tree:
genus, boundary count, signature, nullity and determinant are linear
passes over its preorder ``labels`` and ``parents`` (a greedy matching
from the leaves up, and Jacobs-Trevisan diagonalization as one fold of
integer pairs, whose root numerator is ``+-det(V + V^T)``).  Only the
Alexander polynomial is dense: fraction-free integer determinants of
``V - k V^T``, written from the tree, at k = 0..n, then interpolation
over the integers; ``Fingerprint`` checks its value at -1 against the
determinant.  ``fingerprint_of_matrix`` of any Seifert matrix is the
fingerprint of the tree it is supported on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .trees import PlaneTree

__all__ = [
    "SeifertMatrix",
    "LaurentPolynomial",
    "Fingerprint",
    "seifert_matrix",
    "betti",
    "boundary_components",
    "genus",
    "alexander",
    "signature",
    "determinant",
    "nullity",
    "fingerprint",
    "fingerprint_of_matrix",
    "top_defect_upper_bound",
    "smooth_defect_guarantee",
]


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial ``sum coeffs[i] * t**(lowest + i)``.

    ``coeffs`` is trimmed: its first and last entries are nonzero unless
    the polynomial is zero, in which case ``coeffs`` is empty and
    ``lowest`` is 0.
    """

    lowest: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            if self.lowest != 0:
                raise ValueError("zero polynomial must have lowest exponent 0")
        elif self.coeffs[0] == 0 or self.coeffs[-1] == 0:
            raise ValueError("coefficient sequence must be trimmed")

    @classmethod
    def from_coeffs(cls, lowest: int, coeffs) -> "LaurentPolynomial":
        cs = list(coeffs)
        lo = 0
        while cs and cs[0] == 0:
            cs.pop(0)
            lo += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            return cls(0, ())
        return cls(lowest + lo, tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int):
        """Exact value at an integer; a Fraction when ``lowest`` is negative."""
        value = 0
        for c in reversed(self.coeffs):  # Horner's rule over the ints
            value = value * x + c
        return Fraction(value, x**-self.lowest) if self.lowest < 0 else value * x**self.lowest

    def normalized(self) -> "LaurentPolynomial":
        """Multiply by the unit +-t^k fixing lowest exponent 0 and a positive
        leading coefficient; the classical polynomial is only defined up to
        such units."""
        if self.is_zero:
            return self
        cs = self.coeffs if self.coeffs[-1] > 0 else tuple(-c for c in self.coeffs)
        return LaurentPolynomial(0, cs)

    def to_json_obj(self) -> dict:
        return {"lowest": self.lowest, "coeffs": list(self.coeffs)}

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            e = self.lowest + i
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer linking matrix of the band cores of a plumbing.

    Diagonal entries are the band signs; each plumbing edge contributes a
    single +-1 in exactly one of its two symmetric slots, and the nonzero
    off-diagonal pattern forms a tree.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ValueError("entries must form a nonempty square matrix")
        if any(self.entries[i][i] not in (1, -1) for i in range(n)):
            raise ValueError("diagonal entries must be +-1")
        _support_tree(self)  # checks the off-diagonal pairs and the tree

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Fingerprint:
    """Bundle of exact invariants used as a proxy class for boundary links.

    Equality of fingerprints is necessary but not sufficient for isotopy
    of the boundary links; classes built from it may over-merge.  Its
    determinant, from the signature pass, is checked against Delta(-1).
    """

    n: int
    b: int
    g: int
    alexander: LaurentPolynomial
    signature: int
    determinant: int
    nullity: int

    def __post_init__(self):
        if self.n + 1 - self.b != 2 * self.g:
            raise ValueError("genus must satisfy g = (n + 1 - b) / 2")
        if self.determinant != abs(self.alexander.evaluate(-1)):
            raise ValueError("determinant must equal |alexander(-1)|")

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "b": self.b,
            "g": self.g,
            "alexander": self.alexander.to_json_obj(),
            "sigma": self.signature,
            "det": str(self.determinant),
            "nullity": self.nullity,
        }


# ---------------------------------------------------------------------------
# Exact linear algebra for the Alexander polynomial.
# ---------------------------------------------------------------------------


def _det_int(rows: list[list[int]]) -> int:
    """Bareiss (fraction-free) determinant of an integer matrix."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _interpolate_int(values: list[int]) -> list[int]:
    """Integer coefficients of the polynomial taking ``values`` at 0..d.

    Step ``j`` leaves ``Delta^j f(m) / j!``, an integer when ``f`` has
    integer coefficients, so a remainder means there is no such ``f``."""
    d = len(values) - 1
    coef = list(values)
    for j in range(1, d + 1):
        for i in range(d, j - 1, -1):
            coef[i], r = divmod(coef[i] - coef[i - 1], j)
            if r:
                raise ArithmeticError("interpolation of integer data must be integral")
    poly = [coef[d]]
    for i in range(d - 1, -1, -1):
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= c * i
        nxt[0] += coef[i]
        poly = nxt
    return poly


# ---------------------------------------------------------------------------
# Passes over a tree.  Vertices are numbered in preorder, so walking the
# indices downwards visits every child before its parent.
# ---------------------------------------------------------------------------


def _support_tree(m: SeifertMatrix) -> PlaneTree:
    """The tree ``m`` lives on, renumbered in preorder from basis vector 0.

    Vertex signs are the diagonal; which slot an edge's unit sits in, and
    its sign, are dropped.  Raises ``ValueError`` when an off-diagonal
    pair is not zero or a single +-1 against a 0, or when the support is
    not a tree: a nonzero pair to a vertex already found, other than the
    one the walk came from, closes a cycle.
    """
    e = m.entries
    n = len(e)
    seen = [True] + [False] * (n - 1)
    labels: list[int] = []
    parents: list[int | None] = []
    stack: list[tuple[int, int | None, int | None]] = [(0, None, None)]
    while stack:
        v, p, came_from = stack.pop()
        labels.append(e[v][v])
        parents.append(p)
        for u in range(n - 1, -1, -1):  # pushed downwards, so popped in basis order
            a, b = e[v][u], e[u][v]
            if u == v or a == b == 0:
                continue
            if not ((a in (1, -1) and b == 0) or (b in (1, -1) and a == 0)):
                raise ValueError(f"off-diagonal pair ({v},{u}) must be a single +-1 against a 0")
            if u == came_from:
                continue
            if seen[u]:
                raise ValueError(f"off-diagonal support has a cycle through ({v},{u})")
            seen[u] = True
            stack.append((u, len(labels) - 1, v))
    if len(labels) != n:
        raise ValueError("off-diagonal support must be connected")
    return PlaneTree(tuple(labels), tuple(parents))


def _seifert_rows(t: PlaneTree, k: int) -> list[list[int]]:
    """``V - k V^T`` as integer rows, for ``V = seifert_matrix(t)``."""
    n = t.size
    rows = [[0] * n for _ in range(n)]
    for v, (s, p) in enumerate(zip(t.labels, t.parents)):
        rows[v][v] = (1 - k) * s
        if p is not None:
            rows[p][v], rows[v][p] = 1, -k
    return rows


def _symmetric_invariants(t: PlaneTree) -> tuple[int, int, int]:
    """Signature, nullity and |det| of ``V + V^T``, congruent to ``2E + A(T)``.

    Jacobs-Trevisan diagonalization over the integers: ``a(v)`` is
    ``num[v] / den[v]``, at first twice the sign of v, and folding a child
    ``c`` into its parent subtracts ``1/a(c)``.  A zero child gives its
    parent den 0, an infinite value: that is the reset, where child and
    parent split off as a 2x2 block with one positive and one negative
    eigenvalue, so each infinite vertex counts once as each.  Folding an
    infinite child scales num and den alike, so its parent's value stays:
    that is the cut.  Each fold keeps the determinant and each den is the
    product of the nums folded into it, so ``|num[root]| = |det(V + V^T)|``
    when the nullity is 0.  Edge units enter squared, so their signs and
    slots do not matter.  Away from zeros, num and den are the weighted
    matching sums of v's subtree (vertex weight ``2 eps_v``, edge weight
    -1) over all matchings and over those leaving v unmatched.
    """
    num, den = [2 * s for s in t.labels], [1] * t.size
    for v in range(t.size - 1, 0, -1):  # children before parents
        p = t.parents[v]
        if num[v] or den[p]:  # a second zero child of p stays zero
            num[p], den[p] = num[p] * num[v] - den[p] * den[v], den[p] * num[v]
    inf = den.count(0)
    signs = [(x > 0) == (y > 0) for x, y in zip(num, den) if x and y]
    pos, neg = signs.count(True) + inf, signs.count(False) + inf
    nul = t.size - pos - neg
    return pos - neg, nul, 0 if nul else abs(num[0])


# ---------------------------------------------------------------------------
# Invariants.
# ---------------------------------------------------------------------------


def seifert_matrix(t: PlaneTree) -> SeifertMatrix:
    """Seifert matrix of the plumbing encoded by ``t``.

    Rows and columns follow the vertex indices, which are in preorder.
    ``V[v][v]`` is the sign of ``v``; each edge parent -> child contributes
    ``V[parent][child] = 1`` and leaves the transposed slot 0.
    """
    return SeifertMatrix(tuple(map(tuple, _seifert_rows(t, 0))))


def betti(t: PlaneTree) -> int:
    """First Betti number of the plumbed surface: one band per vertex."""
    return t.size


def boundary_components(t: PlaneTree) -> int:
    """Number of boundary circles of the plumbed surface: ``n - 2 nu(T) + 1``."""
    return t.size - 2 * genus(t) + 1


def genus(t: PlaneTree) -> int:
    """Genus of the plumbed surface (and of its boundary link): the
    matching number ``nu(T)``, since ``rank(V - V^T) = 2 nu(T)`` on a tree.

    Children first, each still-free vertex is matched to a free parent.  A
    vertex left free when its parent is reached has only matched children,
    so it is a leaf of what remains and matching it up is optimal.
    """
    free = [True] * t.size
    nu = 0
    for v in range(t.size - 1, 0, -1):
        p = t.parents[v]
        if free[v] and free[p]:  # type: ignore[index]
            free[v] = free[p] = False  # type: ignore[index]
            nu += 1
    return nu


def alexander(t: PlaneTree) -> LaurentPolynomial:
    """Alexander polynomial ``det(V - t V^T)``, normalized.

    Computed by exact interpolation of integer determinants at the points
    t = 0..n, then shifted and sign-fixed; the output is identical across
    implementations by construction.
    """
    values = [_det_int(_seifert_rows(t, k)) for k in range(t.size + 1)]
    return LaurentPolynomial.from_coeffs(0, _interpolate_int(values)).normalized()


def signature(t: PlaneTree) -> int:
    """Signature of ``V + V^T`` (the link signature of the boundary)."""
    return _symmetric_invariants(t)[0]


def nullity(t: PlaneTree) -> int:
    """Nullity of ``V + V^T``."""
    return _symmetric_invariants(t)[1]


def determinant(t: PlaneTree) -> int:
    """Link determinant ``|Delta(-1)|``, read off the signature pass."""
    return _symmetric_invariants(t)[2]


def fingerprint(t: PlaneTree) -> Fingerprint:
    """Invariant tuple (n, b, g, Delta, sigma, det, nullity) of ``t``."""
    g = genus(t)
    sig, nul, det = _symmetric_invariants(t)
    return Fingerprint(t.size, t.size - 2 * g + 1, g, alexander(t), sig, det, nul)


def fingerprint_of_matrix(m: SeifertMatrix) -> Fingerprint:
    """The fingerprint of the tree that ``m`` is supported on.

    Every invariant depends only on the signs and the tree of nonzero
    off-diagonal slots, so permuting the basis, re-signing by a diagonal
    of +-1 or moving an edge's unit to its other slot cannot change it.
    For Delta: every term of ``det(V - t V^T)`` takes an edge's two slots
    together, as ``-t``.
    """
    return fingerprint(_support_tree(m))


def top_defect_upper_bound(t: PlaneTree) -> int:
    """Upper bound ``g - |sigma|/2`` on the topological genus defect.

    Only defined when the boundary is a knot: ``|sigma|/2`` is a lower
    bound for the topological 4-genus of a knot, so the genus defect
    ``g - g4`` is at most this value.
    """
    g = genus(t)
    if (b := t.size - 2 * g + 1) != 1:
        raise ValueError(f"not a knot: boundary has {b} components")
    return g - abs(signature(t)) // 2


def smooth_defect_guarantee(t: PlaneTree) -> bool:
    """True when all signs agree, forcing smooth genus defect 0.

    All-positive plumbings bound strongly quasipositive links, whose
    smooth 4-genus equals the genus; the all-negative case follows by
    mirror symmetry.  ``False`` means no guarantee, not a nonzero defect.
    """
    return len(set(t.labels)) == 1
