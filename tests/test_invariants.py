import random
from itertools import chain, zip_longest

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_invariants, rank_int, signature_nullity, skew_part, sym_part
from jacobs_trevisan_reference import symmetric_invariants as jacobs_trevisan
from hopfarb import invariants
from hopfarb.embedding import embeds
from hopfarb.invariants import (
    Fingerprint,
    LaurentPolynomial,
    SeifertMatrix,
    alexander,
    betti,
    boundary_components,
    determinant,
    fingerprint,
    fingerprint_of_matrix,
    genus,
    nullity,
    seifert_matrix,
    signature,
    smooth_defect_guarantee,
    top_defect_upper_bound,
)
from hopfarb.trees import enumerate_trees, parse, random_tree
from strategies import plane_trees, zero_grafted_trees


# --- independent oracles -----------------------------------------------------


def sympy_alexander(m: SeifertMatrix):
    """Symbolic det(V - t V^T), normalized the same way: an independent route."""
    t = sympy.Symbol("t")
    n = m.size
    e = m.entries
    mat = sympy.Matrix(n, n, lambda i, j: e[i][j] - t * e[j][i])
    poly = sympy.Poly(sympy.expand(mat.det()), t)
    coeffs = poly.all_coeffs()[::-1]  # ascending
    lo = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        lo += 1
    if not coeffs:
        return LaurentPolynomial(0, ())
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return LaurentPolynomial(0, tuple(int(c) for c in coeffs))


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_add(p, q):
    return [x + y for x, y in zip_longest(p, q, fillvalue=0)]


def matching_sum_alexander(t):
    """Delta as a weighted matching sum over the tree: a closed-form route.

    On a tree, det(V - t V^T) expands over the matchings M: a matched edge
    contributes t (its two slots are u and -t u), an unmatched vertex v its
    diagonal eps_v (1 - t).  One two-state pass, children first: free[v]
    sums the subtree's matchings that leave v unmatched, without v's own
    weight, and total[v] sums all of them.  Coefficients are ascending;
    LaurentPolynomial rejects a zero first or last one.
    """
    free, total = [None] * t.size, [None] * t.size
    for v in range(t.size - 1, -1, -1):
        a, b = [1], [0]  # over the children so far: all free, exactly one matched to v
        for c in t.children[v]:
            a, b = _poly_mul(a, total[c]), _poly_add(_poly_mul(b, total[c]), _poly_mul(a, free[c]))
        s = t.labels[v]
        free[v], total[v] = a, _poly_add(_poly_mul([s, -s], a), [0, *b])
    sign = 1 if total[0][-1] > 0 else -1
    return LaurentPolynomial(0, tuple(sign * c for c in total[0]))


def tree_matching_number(t):
    """Maximum matching of a tree by the greedy leaf rule (optimal on forests)."""
    depth = [0] * t.size
    for v in range(1, t.size):  # preorder: a parent comes before its children
        depth[v] = depth[t.parents[v]] + 1
    order = sorted(range(t.size), key=depth.__getitem__, reverse=True)
    matched = [False] * t.size
    size = 0
    for v in order:
        p = t.parents[v]
        if p is not None and not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            size += 1
    return size


# --- Seifert matrix ----------------------------------------------------------


def test_seifert_matrix_frozen_values():
    assert seifert_matrix(parse("+")).entries == ((1,),)
    assert seifert_matrix(parse("+(+)")).entries == ((1, 1), (0, 1))
    assert seifert_matrix(parse("+(-)")).entries == ((1, 1), (0, -1))
    assert seifert_matrix(parse("+(+,-)")).entries == (
        (1, 1, 1),
        (0, 1, 0),
        (0, 0, -1),
    )


def test_seifert_matrix_dimension_is_betti(u4):
    for t in u4.trees:
        assert seifert_matrix(t).size == betti(t) == t.size


def test_seifert_matrix_validation():
    for entries in ((), ((1, 0),)):  # empty, and a row wider than the matrix is tall
        with pytest.raises(ValueError, match="nonempty square matrix"):
            SeifertMatrix(entries)
    with pytest.raises(ValueError):
        SeifertMatrix(((0,),))  # diagonal must be +-1
    with pytest.raises(ValueError):
        SeifertMatrix(((1, 1), (1, 1)))  # both symmetric slots nonzero
    with pytest.raises(ValueError):
        SeifertMatrix(((1, 2), (0, 1)))  # off-diagonal must be a unit
    with pytest.raises(ValueError):
        SeifertMatrix(((1, 0), (0, 1)))  # missing edge
    # Right edge count but cyclic support (triangle plus isolated vertex).
    cyc = (
        (1, 1, 1, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    with pytest.raises(ValueError):
        SeifertMatrix(cyc)
    # Connected with n edges: the path 0-1-2-3 and an edge from 3 back to 0.
    ring = (
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 1),
        (-1, 0, 0, 1),
    )
    with pytest.raises(ValueError, match="cycle"):
        SeifertMatrix(ring)


# --- Laurent polynomials -----------------------------------------------------


def test_laurent_trimming_and_zero():
    p = LaurentPolynomial.from_coeffs(-2, [0, 1, 0, -3, 0])
    assert (p.lowest, p.coeffs) == (-1, (1, 0, -3))
    z = LaurentPolynomial.from_coeffs(5, [0, 0])
    assert z.is_zero and z.lowest == 0
    with pytest.raises(ValueError):
        LaurentPolynomial(0, (0, 1))
    with pytest.raises(ValueError):
        LaurentPolynomial(1, ())


def test_laurent_str_descending():
    assert str(LaurentPolynomial(0, (1, -3, 1))) == "t^2 - 3*t + 1"
    assert str(LaurentPolynomial(0, (-1, 1))) == "t - 1"
    assert str(LaurentPolynomial(0, (2,))) == "2"
    assert str(LaurentPolynomial(1, (1,))) == "t"
    assert str(LaurentPolynomial(-1, (1, 1))) == "1 + t^-1"
    assert str(LaurentPolynomial(0, ())) == "0"
    # An inner zero coefficient prints no term.
    assert str(LaurentPolynomial(0, (1, 0, 1))) == "t^2 + 1"
    assert str(LaurentPolynomial(-1, (1, 0, -1))) == "-t + t^-1"


def test_laurent_evaluate():
    p = LaurentPolynomial(0, (1, -3, 1))
    assert p.evaluate(-1) == 5
    assert p.evaluate(1) == -1
    q = LaurentPolynomial(-1, (1, 1))
    from fractions import Fraction

    assert q.evaluate(2) == Fraction(3, 2)
    # lowest < 0 gives a Fraction, with an inner zero; lowest > 0 an int.
    assert LaurentPolynomial(-2, (1, 0, 3)).evaluate(2) == Fraction(13, 4)
    assert LaurentPolynomial(-2, (1, 0, 3)).evaluate(-1) == 4
    r = LaurentPolynomial(2, (1, -1)).evaluate(3)
    assert r == 9 - 27 and type(r) is int


@pytest.mark.parametrize("lowest", range(-5, 6))
def test_laurent_evaluate_matches_the_fraction_sum(lowest):
    from fractions import Fraction

    rnd = random.Random(lowest)
    for _ in range(20):
        coeffs = [rnd.randint(-9, 9) for _ in range(rnd.randint(1, 6))]
        coeffs[0] = coeffs[-1] = rnd.choice((-3, -1, 1, 2))
        p = LaurentPolynomial(lowest, tuple(coeffs))
        for x in range(-3, 4):
            if x == 0 and lowest < 0:
                continue
            naive = sum(Fraction(x) ** (lowest + i) * c for i, c in enumerate(coeffs))
            assert p.evaluate(x) == naive
            if lowest >= 0:
                assert type(p.evaluate(x)) is int


@settings(deadline=None)
@given(st.lists(st.integers(-(2**70) + 1, 2**70 - 1), min_size=1, max_size=41))
def test_interpolate_int_recovers_integer_coefficients(coeffs):
    values = [sum(c * x**k for k, c in enumerate(coeffs)) for x in range(len(coeffs))]
    assert invariants._interpolate_int(values) == coeffs


def test_interpolate_int_refuses_a_non_integral_interpolant():
    # x(x - 1)/2 takes integer values at 0, 1, 2 but has coefficients 1/2.
    with pytest.raises(ArithmeticError):
        invariants._interpolate_int([0, 0, 1])


def test_laurent_normalized():
    assert LaurentPolynomial(3, (1, -1)).normalized() == LaurentPolynomial(0, (-1, 1))
    assert LaurentPolynomial(0, (1, -1)).normalized() == LaurentPolynomial(0, (-1, 1))
    z = LaurentPolynomial(0, ())
    assert z.normalized() is z


def test_normalization_idempotent_on_real_outputs(u5):
    for t in u5.trees:
        d = alexander(t)
        assert d.normalized() == d
        assert d.lowest == 0
        assert d.is_zero or d.coeffs[-1] > 0


# --- frozen invariant table --------------------------------------------------

TABLE = {
    # tree: (b, g, alexander coeffs ascending from t^0, sigma, det)
    "+": (2, 0, (-1, 1), 1, 2),
    "+(+)": (1, 1, (1, -1, 1), 2, 3),
    "+(-)": (1, 1, (1, -3, 1), 0, 5),
    "-(+)": (1, 1, (1, -3, 1), 0, 5),
    "-(-)": (1, 1, (1, -1, 1), -2, 3),
    "+(+(+))": (2, 1, (-1, 1, -1, 1), 3, 4),
}


@pytest.mark.parametrize("text", sorted(TABLE))
def test_invariant_table(text):
    b, g, coeffs, sig, det = TABLE[text]
    t = parse(text)
    assert boundary_components(t) == b
    assert genus(t) == g
    assert alexander(t) == LaurentPolynomial(0, coeffs)
    assert signature(t) == sig
    assert determinant(t) == det


def test_nullity_examples(u5):
    assert nullity(parse("+(+)")) == 0
    assert nullity(parse("+")) == 0
    for t in u5.trees:
        # rank-nullity against an independent rank computation
        assert nullity(t) + rank_int(sym_part(seifert_matrix(t))) == t.size


# --- cross-validation sweeps -------------------------------------------------


def test_alexander_matches_sympy_exhaustive_to_4(u4):
    for t in u4.trees:
        assert alexander(t) == sympy_alexander(seifert_matrix(t)), t.text


def test_alexander_matches_sympy_random_5_to_8():
    for i in range(24):
        t = random_tree(5 + i % 4, seed=1000 + i)
        assert alexander(t) == sympy_alexander(seifert_matrix(t)), t.text


def test_genus_and_boundary_via_matching_oracle(u6):
    # rank(V - V^T) equals twice the maximum matching of the tree, giving
    # a purely combinatorial oracle for genus and boundary count.
    for t in u6.trees:
        m = tree_matching_number(t)
        assert genus(t) == m
        assert boundary_components(t) == t.size - 2 * m + 1


# A vertex of value 0 below a vertex that has a parent: the pivot pass
# must cut that vertex from its parent, and here the cut changes the
# parent's sign (no tree with n <= 6 shows this).
CUT_BELOW_ROOT = ["-(+(+(+,+,+,+)))", "-(-(-(-,-,-,-)))", "-(+(+,-(-,-,-,-)))"]


def test_alexander_matches_matching_sum(u6):
    for t in [*u6.trees, *map(parse, CUT_BELOW_ROOT)]:
        assert alexander(t) == matching_sum_alexander(t), t.text
    for i, n in enumerate(n for n in range(8, 41, 4) for _ in range(3)):
        t = random_tree(n, seed=2000 + i)
        assert alexander(t) == matching_sum_alexander(t), t.text


def test_determinant_is_det_of_symmetrized_matrix(u6):
    # Delta(-1) = det(V + V^T) exactly, so |det(V + V^T)| by dense
    # elimination is an independent oracle for the diagonal's product.
    # The cut trees put 2 * (-1/2) = -1 into that product.
    from hopfarb.invariants import _det_int

    for t in [*u6.trees, *map(parse, CUT_BELOW_ROOT)]:
        assert determinant(t) == abs(_det_int(sym_part(seifert_matrix(t)))), t.text


def test_fingerprint_checks_determinant_against_alexander(monkeypatch):
    # The diagonal and the dense Delta are independent routes to det, so
    # a wrong diagonal product cannot pass Fingerprint's check.
    real = invariants._symmetric_invariants

    def off_by_one(t):
        sig, nul, det = real(t)
        return sig, nul, det + 1

    monkeypatch.setattr(invariants, "_symmetric_invariants", off_by_one)
    with pytest.raises(ValueError, match="determinant"):
        fingerprint(parse("+(+)"))


def test_fold_matches_jacobs_trevisan_walk_up_to_size_7():
    every = chain.from_iterable(map(enumerate_trees, range(1, 8)))
    for t in chain(every, map(parse, CUT_BELOW_ROOT)):
        assert invariants._symmetric_invariants(t) == jacobs_trevisan(t), t.text


@pytest.mark.parametrize(
    "text, expected",
    [
        ("-(+(+,+,+,+),+(+,+,+,+))", (8, 1, 0)),  # the root has two zero children
        ("+(+(+,+,+,+),+(+,+,+,+),+(+,+,+,+))", (12, 2, 0)),  # three zero children
        ("+(+(+(+,+,+,+),+(+,+,+,+)))", (9, 1, 0)),  # two, below the root
        ("+(+(+,+,+,+))", (4, 0, 16)),  # the root is infinite
        ("+(+(+,+,+))", (4, 1, 0)),  # the root is zero
    ],
)
def test_fold_on_zero_children(text, expected):
    t = parse(text)
    assert invariants._symmetric_invariants(t) == expected == jacobs_trevisan(t)


@settings(max_examples=200, deadline=None)
@given(plane_trees(max_size=30))
def test_fold_matches_jacobs_trevisan_walk(t):
    assert invariants._symmetric_invariants(t) == jacobs_trevisan(t), t.text


@settings(max_examples=100, deadline=None)
@given(zero_grafted_trees())
def test_fold_matches_references_on_zero_grafted_trees(t):
    # Here a vertex may have several zero children; only the first resets
    # it, and the others stay zero.
    got = invariants._symmetric_invariants(t)
    assert got == jacobs_trevisan(t), t.text
    if t.size <= 25:
        sym = sym_part(seifert_matrix(t))
        assert got[:2] == signature_nullity(sym), t.text
        assert got[2] == abs(invariants._det_int(sym)), t.text


def test_tree_passes_match_dense_reference(u6):
    for t in [*u6.trees, *map(parse, CUT_BELOW_ROOT)]:
        got = (boundary_components(t), genus(t), signature(t), nullity(t))
        assert got == dense_invariants(seifert_matrix(t)), t.text


def _path(signs):
    return parse("(".join(signs) + ")" * (len(signs) - 1))


def test_tree_passes_on_10_4_vertices(monkeypatch):
    n = 10**4
    alternating, positive = _path("+-" * (n // 2)), _path("+" * n)
    # Centre +, 5002 positive and 4998 negative leaves: the centre's pivot
    # 2 - 5002/2 + 4998/2 is 0, so the nullity is 1.
    star = parse("+(" + ",".join(["+"] * 5002 + ["-"] * 4998) + ")")
    big = random_tree(n, 1)

    def no_matrix(*args):
        raise AssertionError("an n x n matrix was built")

    monkeypatch.setattr(invariants, "seifert_matrix", no_matrix)
    monkeypatch.setattr(invariants, "SeifertMatrix", no_matrix)
    monkeypatch.setattr(invariants, "_det_int", no_matrix)
    # On a path every pivot keeps its vertex's sign and exceeds 1 in size.
    for t in (alternating, positive):
        assert genus(t) == n // 2
        assert boundary_components(t) == 1
        assert signature(t) == sum(t.labels)
        assert nullity(t) == 0
    assert signature(positive) == n
    assert determinant(positive) == n + 1
    # det(2E + A) of a path by the tridiagonal recurrence, d_k = +-2.
    prev, cur = 0, 1
    for s in alternating.labels:
        prev, cur = cur, 2 * s * cur - prev
    assert determinant(alternating) == abs(cur)
    assert top_defect_upper_bound(alternating) == n // 2
    assert top_defect_upper_bound(positive) == 0
    assert (genus(star), boundary_components(star)) == (1, star.size - 1)
    assert (signature(star), nullity(star), determinant(star)) == (4, 1, 0)
    with pytest.raises(ValueError, match="not a knot"):
        top_defect_upper_bound(star)
    g, sig, nul = genus(big), signature(big), nullity(big)
    assert g == tree_matching_number(big)
    assert boundary_components(big) == n - 2 * g + 1
    assert abs(sig) + nul <= n and (sig + nul - n) % 2 == 0
    # 10^5 vertices: the path through the public functions, and one pass
    # over a star whose centre, as above, is zero.
    n = 10**5
    positive = _path("+" * n)
    assert (signature(positive), nullity(positive), determinant(positive)) == (n, 0, n + 1)
    star = parse("+(" + ",".join(["+"] * 50002 + ["-"] * 49998) + ")")
    assert invariants._symmetric_invariants(star) == (4, 1, 0)


def test_genus_identity_universe_8():
    # g = (n + 1 - b)/2 with integer g for every tree of size <= 8; the
    # skew-symmetric part always has even rank.
    for n in range(1, 9):
        for t in enumerate_trees(n):
            rank = rank_int(skew_part(seifert_matrix(t)))
            assert rank % 2 == 0
            b = n - rank + 1
            assert 2 * (rank // 2) == n + 1 - b
            assert tree_matching_number(t) * 2 == rank
            assert (genus(t), boundary_components(t)) == (rank // 2, b)


def test_monic_alexander_for_knot_trees(u5):
    # The surfaces are fibres and V is triangular in preorder, so
    # Delta(0) = det V = +-1 and Delta has degree n on every tree.
    for t in u5.trees:
        delta = alexander(t)
        assert (delta.lowest, len(delta.coeffs), delta.coeffs[-1]) == (0, t.size + 1, 1), t.text
        assert delta.coeffs[0] in (1, -1), t.text
        if boundary_components(t) == 1:
            assert delta.evaluate(1) in (1, -1), t.text


def test_signature_even_for_knot_trees(u6):
    for t in u6.trees:
        if boundary_components(t) == 1:
            assert signature(t) % 2 == 0, t.text


def test_genus_monotone_under_embedding(u4):
    for t1 in u4.trees:
        for t2 in u4.trees:
            if embeds(t1, t2):
                assert genus(t1) <= genus(t2)
                assert betti(t1) <= betti(t2)


# --- fingerprints ------------------------------------------------------------


def test_fingerprint_examples():
    assert fingerprint(parse("+(-)")) == fingerprint(parse("-(+)"))
    assert fingerprint(parse("+(+)")) != fingerprint(parse("-(-)"))
    assert fingerprint(parse("+")).b == 2


def test_fingerprint_json_schema():
    fp = fingerprint(parse("+(+)"))
    assert fp.to_json_obj() == {
        "n": 2,
        "b": 1,
        "g": 1,
        "alexander": {"lowest": 0, "coeffs": [1, -1, 1]},
        "sigma": 2,
        "det": "3",
        "nullity": 0,
    }


def test_fingerprint_validation():
    delta = LaurentPolynomial(0, (1, -1, 1))
    with pytest.raises(ValueError):
        Fingerprint(2, 1, 0, delta, 2, 3, 0)  # genus identity broken
    with pytest.raises(ValueError):
        Fingerprint(2, 1, 1, delta, 2, 7, 0)  # determinant mismatch


def test_basis_flip_invariance_seeded():
    rng = random.Random(20240917)
    for _ in range(200):
        n = rng.randint(1, 8)
        t = random_tree(n, rng.randrange(2**31))
        v = seifert_matrix(t)
        d = [rng.choice((1, -1)) for _ in range(n)]
        flipped = SeifertMatrix(
            tuple(
                tuple(d[i] * d[j] * v.entries[i][j] for j in range(n))
                for i in range(n)
            )
        )
        assert fingerprint_of_matrix(flipped) == fingerprint_of_matrix(v)


def _scrambled(t, rnd):
    """A Seifert matrix of ``t`` in another basis: permute the basis, put
    each edge's unit in a random slot with a random sign, then re-sign by
    a random +-1 diagonal congruence."""
    n = t.size
    name = list(range(n))
    rnd.shuffle(name)
    e = [[0] * n for _ in range(n)]
    for v, p in enumerate(t.parents):
        e[name[v]][name[v]] = t.labels[v]
        if p is not None:
            i, j = (name[p], name[v]) if rnd.random() < 0.5 else (name[v], name[p])
            e[i][j] = rnd.choice((1, -1))
    d = [rnd.choice((1, -1)) for _ in range(n)]
    return SeifertMatrix(tuple(tuple(d[i] * d[j] * e[i][j] for j in range(n)) for i in range(n)))


@settings(deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_fingerprint_of_matrix_reads_only_the_support_tree(n, seed, rnd):
    t = random_tree(n, seed)
    m = _scrambled(t, rnd)
    fp = fingerprint_of_matrix(m)
    assert (fp.b, fp.g, fp.signature, fp.nullity) == dense_invariants(m)
    assert fp == fingerprint(t)


def test_fingerprint_of_matrix_alexander_matches_sympy_on_scrambled_matrices():
    # fingerprint_of_matrix reads only the support tree, so sympy on the
    # scrambled matrix itself is the dense oracle for its Delta.
    rnd = random.Random(20260117)
    for _ in range(40):
        m = _scrambled(random_tree(rnd.randint(1, 7), rnd.randrange(2**32)), rnd)
        assert fingerprint_of_matrix(m).alexander == sympy_alexander(m), m.entries


def test_invariants_build_no_seifert_matrix(u5, monkeypatch):
    # The support tree of the matrix of a tree is the tree itself.
    assert all(invariants._support_tree(seifert_matrix(t)) == t for t in u5.trees)
    want = [(fingerprint(t), alexander(t), determinant(t)) for t in u5.trees]

    def no_matrix(*args):
        raise AssertionError("a Seifert matrix was built")

    monkeypatch.setattr(invariants, "seifert_matrix", no_matrix)
    monkeypatch.setattr(invariants, "SeifertMatrix", no_matrix)
    assert [(fingerprint(t), alexander(t), determinant(t)) for t in u5.trees] == want


# --- defect bounds -----------------------------------------------------------


def test_top_defect_upper_bound():
    assert top_defect_upper_bound(parse("+(+)")) == 0
    assert top_defect_upper_bound(parse("+(-)")) == 1
    with pytest.raises(ValueError, match="not a knot"):
        top_defect_upper_bound(parse("+"))


def test_smooth_defect_guarantee():
    assert smooth_defect_guarantee(parse("+(+)"))
    assert smooth_defect_guarantee(parse("-(-)"))
    assert not smooth_defect_guarantee(parse("+(-)"))
