"""Dense exact linear algebra on Seifert matrices, kept as a test oracle.

The library computes genus, boundary count, signature and nullity with
passes over the tree a Seifert matrix is supported on.  These routines
compute the same numbers from the definitions instead: the rank of
``V - V^T`` by fraction-free integer elimination, and the inertia of
``V + V^T`` by congruence diagonalization over exact rationals.  They
work on any square integer matrix and know nothing about trees.
"""

from fractions import Fraction


def skew_part(m):
    """``V - V^T`` of a ``SeifertMatrix`` as a list of integer rows."""
    e = m.entries
    n = m.size
    return [[e[i][j] - e[j][i] for j in range(n)] for i in range(n)]


def sym_part(m):
    """``V + V^T`` of a ``SeifertMatrix`` as a list of integer rows."""
    e = m.entries
    n = m.size
    return [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]


def rank_int(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, m):
            for j in range(col + 1, ncols):
                a[i][j] = (a[i][j] * a[row][col] - a[i][col] * a[row][j]) // prev
            a[i][col] = 0
        prev = a[row][col]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def _sym_swap(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def signature_nullity(rows):
    """Signature and nullity of a symmetric matrix over exact rationals.

    Congruence diagonalization with symmetric pivoting; when the working
    block has an all-zero diagonal, a nonzero pair ``A[i][j]`` is split
    off as a hyperbolic 2x2 block, contributing rank 2 and signature 0.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = null = 0
    while a:
        n = len(a)
        p = next((i for i in range(n) if a[i][i] != 0), None)
        if p is not None:
            if p != 0:
                _sym_swap(a, 0, p)
            d = a[0][0]
            if d > 0:
                pos += 1
            else:
                neg += 1
            a = [
                [a[i][j] - a[i][0] * a[0][j] / d for j in range(1, n)]
                for i in range(1, n)
            ]
            continue
        pair = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if a[i][j] != 0), None
        )
        if pair is None:
            null += n
            break
        i, j = pair  # i < j, and j stays put when row i moves to the front
        if i != 0:
            _sym_swap(a, 0, i)
        if j != 1:
            _sym_swap(a, 1, j)
        d = a[0][1]
        pos += 1
        neg += 1
        a = [
            [
                a[r][s] - (a[r][0] * a[1][s] + a[r][1] * a[0][s]) / d
                for s in range(2, n)
            ]
            for r in range(2, n)
        ]
    return pos - neg, null


def dense_invariants(m):
    """``(b, g, signature, nullity)`` of a ``SeifertMatrix`` from its
    definitions: ``rank(V - V^T) = 2g = n + 1 - b`` and the inertia of
    ``V + V^T``."""
    rank = rank_int(skew_part(m))
    if rank % 2:
        raise ArithmeticError("skew-symmetric part must have even rank")
    return (m.size - rank + 1, rank // 2) + signature_nullity(sym_part(m))
