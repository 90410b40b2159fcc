"""Jacobs-Trevisan diagonalization over exact rationals, kept as a test oracle.

The library folds integer numerator and denominator pairs and has no
special case for a zero value.  This walk is the textbook algorithm
(Jacobs and Trevisan, "Locating the eigenvalues of trees", 2011) over
``Fraction``s, with its reset branch: a vertex with a zero child sets
that child to 2, itself to -1/2, and is cut from its parent.
"""

import math
from fractions import Fraction


def symmetric_invariants(t):
    """Signature, nullity and |det| of ``2E + A(T)`` for a ``PlaneTree``.

    Each vertex starts at twice its sign and takes ``-1/a(c)`` from every
    live child ``c``.  Every step keeps the determinant, so the
    diagonal's product is ``+-det(V + V^T)``.
    """
    a = [Fraction(2 * s) for s in t.labels]
    zero_child = [None] * t.size
    for v in range(t.size - 1, -1, -1):
        c = zero_child[v]
        if c is not None:
            a[c], a[v] = Fraction(2), Fraction(-1, 2)
            continue
        p = t.parents[v]
        if p is None:
            continue
        if a[v]:
            a[p] -= 1 / a[v]
        else:
            zero_child[p] = v
    pos = sum(x > 0 for x in a)
    neg = sum(x < 0 for x in a)
    return pos - neg, len(a) - pos - neg, abs(int(math.prod(reversed(a))))
