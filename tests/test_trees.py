import json
import re
from functools import reduce
from itertools import islice, product

import pytest
from hypothesis import given, settings

from hopfarb.embedding import embeds
from hopfarb.trees import (
    PlaneTree,
    TreeSyntaxError,
    _shapes,
    count,
    enumerate_trees,
    parse,
    random_tree,
    reductions,
    remove_vertex,
    tree_from_json_obj,
    tree_to_json,
    unrank,
)
from json_reference import tree_to_json_obj, tree_to_json_text
from splice_reference import path_interior, splice, text_splice
from splice_reference import reductions as reference_reductions
from strategies import plane_trees


# --- grammar -----------------------------------------------------------------


def test_parse_basic():
    t = parse("+(+,-)")
    assert t.labels == (1, 1, -1)
    assert t.parents == (None, 0, 0)
    assert t.children == ((1, 2), (), ())
    assert t.root == 0


def test_parse_ignores_whitespace():
    assert parse(" - ( + ) ") == parse("-(+)")
    assert parse("\t+\n(\n+ , - )") == parse("+(+,-)")


PARSE_ERRORS = [
    # A sign is due: after '(' or ',', and at the start.
    ("", 0, "expected '+' or '-'"),
    ("   ", 3, "expected '+' or '-'"),
    ("+(", 2, "expected '+' or '-'"),
    ("+(+,", 4, "expected '+' or '-'"),
    ("x", 0, "expected '+' or '-', found 'x'"),
    ("+(+,)", 4, "expected '+' or '-', found ')'"),
    ("+()", 2, "expected '+' or '-', found ')'"),
    ("+(+(-,)", 6, "expected '+' or '-', found ')'"),
    ("+(-(+),x)", 7, "expected '+' or '-', found 'x'"),
    ("-(+,-(+ ,+),)", 12, "expected '+' or '-', found ')'"),
    # After a sign.
    ("+(+", 3, "expected ',' or ')'"),
    ("+(+ -)", 4, "expected ',' or ')'"),
    ("+)", 1, "unexpected trailing input ')'"),
    ("++", 1, "unexpected trailing input '+'"),
    ("+ +", 2, "unexpected trailing input '+'"),
    ("+,", 1, "unexpected trailing input ','"),
    # After ')'.
    ("+(+(-)", 6, "expected ',' or ')'"),
    ("+(+(-) ", 7, "expected ',' or ')'"),
    ("+(+(-)(+))", 6, "expected ',' or ')'"),
    ("+(+))", 4, "unexpected trailing input ')'"),
    ("+(+(-)),", 7, "unexpected trailing input ','"),
    ("+(+)x", 4, "unexpected trailing input 'x'"),
    ("+(+)(", 4, "unexpected trailing input '('"),
]


@pytest.mark.parametrize(
    "text,offset,message", PARSE_ERRORS, ids=[f"{t}-{o}" for t, o, _ in PARSE_ERRORS]
)
def test_parse_errors_carry_offset(text, offset, message):
    with pytest.raises(TreeSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"syntax error at offset {offset}: {message}"


def test_text_examples():
    assert parse("+").text == "+"
    assert parse("-(+)").text == "-(+)"
    assert parse(" + ( + , - ( + ) ) ").text == "+(+,-(+))"


def test_round_trip_exhaustive_up_to_6():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert parse(t.text) == t


def test_equality_is_plane_isomorphism():
    assert parse("+(+,-)") == parse("+(+,-)")
    assert parse("+(+,-)") != parse("+(-,+)")
    assert parse("+") != parse("-")


def test_invalid_constructions_rejected():
    for labels, parents in [
        ((), ()),  # empty tree
        ((2,), (None,)),  # bad label
        ((1, 1), (None,)),  # lengths differ
        ((1, 1), (None, None)),  # two roots
        ((1, 1), (1, None)),  # the root is not vertex 0
        ((1, 1, 1, 1), (None, 0, 0, 1)),  # not in preorder: 1 is closed by 2
        ((1, 1, 1), (None, 2, 0)),  # a parent after its child
        ((1, 1, 1), (None, 2, 1)),  # a two-cycle apart from the root
        ((1, 1), (None, 1)),  # its own parent
        ((1, 1), (None, 0.0)),  # a float parent, equal to 0
        ((1.0, 1), (None, 0)),  # a float label, equal to 1
        ((True, 1), (None, 0)),  # a bool label, equal to 1
        ((1, 1), (None, True)),  # a bool parent, unequal to the root 0
    ]:
        with pytest.raises(ValueError):
            PlaneTree(labels, parents)
    with pytest.raises(ValueError, match="parent of vertex 1 must be an int"):
        PlaneTree((1, 1), (None, True))


def test_tree_built_from_lists_equals_its_parse():
    t = PlaneTree([1, 1], [None, 0])
    assert (t.labels, t.parents) == ((1, 1), (None, 0))
    assert t == parse("+(+)") and hash(t) == hash(parse("+(+)"))


def test_constructor_accepts_exactly_the_preorder_numberings():
    # Of the (n-1)! parent sequences with parents[v] < v, the preorder
    # numberings are one per plane shape: Catalan(n-1) of them.
    for n, catalan in zip(range(1, 8), (1, 1, 2, 5, 14, 42, 132)):
        labels = tuple(-1 if v % 3 == 1 else 1 for v in range(n))
        accepted = []
        for parents in product(*(range(v) for v in range(1, n))):
            try:
                accepted.append(PlaneTree(labels, (None, *parents)))
            except ValueError:
                pass
        assert len(accepted) == catalan
        for t in accepted:
            u = parse(t.text)
            assert (u.labels, u.parents, u.children) == (t.labels, t.parents, t.children)


def test_vertex_v_carries_the_vth_sign_of_text():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert [c for c in t.text if c in "+-"] == ["+-"[l < 0] for l in t.labels]


def test_parse_keeps_canonical_input_as_text():
    # Whitespace-free input that parses is the canonical text itself.
    for n in range(1, 7):
        for t in enumerate_trees(n):
            text = t.text
            assert parse(text).text is text


@pytest.mark.parametrize("text", [" +", "+ (-)", "+(-, +(-))", "+(-,\n+(\t-))\n"])
def test_parse_rebuilds_text_of_input_with_whitespace(text):
    assert parse(text).text == "".join(text.split())


@settings(deadline=None)
@given(plane_trees())
def test_parse_inverts_text(t):
    assert parse(t.text) == t


@settings(deadline=None)
@given(plane_trees())
def test_json_round_trip_property(t):
    assert tree_to_json(t) == tree_to_json_text(t)
    assert tree_from_json_obj(json.loads(tree_to_json(t))) == t


@settings(deadline=None)
@given(plane_trees())
def test_reductions_are_one_vertex_minors(t):
    for r in reductions(t):
        assert r.size == t.size - 1
        assert embeds(r, t)


# --- enumeration -------------------------------------------------------------


def test_count_formula():
    assert count(1) == 2
    assert count(4) == 80
    assert count(8) == 109824
    with pytest.raises(ValueError):
        count(0)


def test_enumeration_order_is_documented():
    assert [t.text for t in enumerate_trees(1)] == ["+", "-"]
    assert [t.text for t in enumerate_trees(2)] == ["+(+)", "+(-)", "-(+)", "-(-)"]
    # Shapes in lexicographic balanced-parenthesis order ('(())' before
    # '()()'), sign vectors counting with '+' < '-'.
    assert [t.text for t in enumerate_trees(3)] == [
        "+(+(+))", "+(+(-))", "+(-(+))", "+(-(-))",
        "-(+(+))", "-(+(-))", "-(-(+))", "-(-(-))",
        "+(+,+)", "+(+,-)", "+(-,+)", "+(-,-)",
        "-(+,+)", "-(+,-)", "-(-,+)", "-(-,-)",
    ]


def test_enumeration_matches_count_and_is_duplicate_free():
    for n in range(1, 7):
        texts = [t.text for t in enumerate_trees(n)]
        assert len(texts) == count(n)
        assert len(set(texts)) == len(texts)


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        next(enumerate_trees(0))


def test_enumerated_trees_equal_their_checked_twins():
    # Enumerated trees are stamped from their shape, with no constructor
    # check; each must equal the tree the checked constructor builds,
    # whose text, children and end are computed afresh.
    for n in range(1, 8):
        for t in enumerate_trees(n):
            u = PlaneTree(t.labels, t.parents)
            assert u == t and hash(u) == hash(t)
            assert (t.text, t.children, t.end) == (u.text, u.children, u.end)
            assert t.signed == u.signed


@settings(deadline=None)
@given(plane_trees())
def test_end_is_one_past_the_last_descendant(t):
    descendants = [0] * t.size
    for w in range(t.size):
        v = w
        while v is not None:
            descendants[v] += 1
            v = t.parents[v]
    assert t.end == tuple(v + d for v, d in enumerate(descendants))


def test_enumeration_checks_each_shape_once(monkeypatch):
    calls = []
    check = PlaneTree.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(PlaneTree, "__post_init__", counted)
    assert len(list(enumerate_trees(6))) == 2688
    assert len(calls) == 42  # Catalan(5): one per shape, not one per tree


def test_shapes_of_one_size_share_one_labels_tuple():
    for n in range(2, 8):
        shapes = list(_shapes(n))
        assert shapes[0].labels == (1,) * n
        assert all(s.labels is shapes[0].labels for s in shapes)


def test_unrank_agrees_with_enumeration():
    for n in range(1, 8):
        for i, t in enumerate(enumerate_trees(n)):
            assert unrank(n, i) == t


def _shape_word(t):
    # '(' on entering each non-root vertex in preorder, ')' on leaving it.
    out, path = [], [0]
    for v in range(1, t.size):
        while path[-1] != t.parents[v]:
            path.pop()
            out.append(")")
        path.append(v)
        out.append("(")
    return "".join(out) + ")" * (len(path) - 1)


def _is_balanced(word):
    depth = 0
    for c in word:
        depth += 1 if c == "(" else -1
        if depth < 0:
            return False
    return depth == 0


def test_enumeration_order_matches_sorted_balanced_words():
    # The order, built independently: every balanced word of n-1 pairs,
    # sorted ('(' < ')'), and within each word every sign vector with
    # '+' before '-'.
    for n in range(1, 9):
        words = sorted(w for w in map("".join, product("()", repeat=2 * (n - 1))) if _is_balanced(w))
        expected = [(w, labels) for w in words for labels in product((1, -1), repeat=n)]
        assert [(_shape_word(t), t.labels) for t in enumerate_trees(n)] == expected


def test_unrank_range_errors():
    with pytest.raises(ValueError):
        unrank(3, 16)
    with pytest.raises(ValueError):
        unrank(3, -1)
    with pytest.raises(ValueError):
        unrank(0, 0)


# --- random sampling ---------------------------------------------------------


def test_random_tree_deterministic():
    for n in (1, 3, 6):
        assert random_tree(n, 42) == random_tree(n, 42)
    assert random_tree(1, 7).text in ("+", "-")
    with pytest.raises(ValueError):
        random_tree(0, 1)


def test_random_tree_large():
    assert random_tree(3000, 1).size == 3000


def test_random_tree_membership():
    texts = {t.text for t in enumerate_trees(4)}
    for seed in range(200):
        assert random_tree(4, seed).text in texts


def test_random_tree_uniformity_at_size_3():
    # 10^5 seeded draws; each of the 16 trees should land within
    # 1/16 +- 0.01 of the empirical frequency.
    draws = 100_000
    counts = {t.text: 0 for t in enumerate_trees(3)}
    for seed in range(draws):
        counts[random_tree(3, seed).text] += 1
    for c in counts.values():
        assert abs(c / draws - 1 / 16) < 0.01


# --- reduction operations ----------------------------------------------------


def remove_path(t, interior):
    # Deepest vertex first: a removal renumbers only the vertices after it.
    return reduce(remove_vertex, sorted(interior, reverse=True), t)


def test_delete_leaf():
    t = parse("+(+,-)")
    assert remove_vertex(t, 2) == parse("+(+)")
    assert remove_vertex(t, 1) == parse("+(-)")
    with pytest.raises(ValueError, match="vertex 0 has 2 children, expected at most 1"):
        remove_vertex(t, 0)
    with pytest.raises(ValueError, match="cannot remove the only vertex"):
        remove_vertex(parse("+"), 0)


@pytest.mark.parametrize("bad", [-1, 3])
def test_reduction_operations_range_check_vertices(bad):
    t = parse("+(-(+))")
    message = f"vertex {bad} out of range for a tree of 3 vertices"
    with pytest.raises(ValueError, match=message):
        remove_vertex(t, bad)  # -1 is not read as the last vertex, 2


@pytest.mark.parametrize("bad", [True, 1.0])
def test_remove_vertex_takes_only_an_int(bad):
    # True == 1 and 1.0 == 1, yet neither names vertex 1.
    with pytest.raises(ValueError, match=f"a vertex must be an int, got {bad!r}"):
        remove_vertex(parse("+(+,-)"), bad)


def test_delete_leaf_preserves_sibling_order():
    t = parse("+(+,-,+)")
    assert remove_vertex(t, 2) == parse("+(+,+)")


def test_strip_root():
    assert remove_vertex(parse("+(-)"), 0) == parse("-")
    assert remove_vertex(parse("-(+(+,-))"), 0) == parse("+(+,-)")
    with pytest.raises(ValueError):
        remove_vertex(parse("+(+,-)"), 0)
    with pytest.raises(ValueError):
        remove_vertex(parse("+"), 0)


def test_contract_path():
    assert remove_vertex(parse("+(-(+))"), 1) == parse("+(+)")
    assert remove_path(parse("+(-(-(+)))"), [1, 2]) == parse("+(+)")
    with pytest.raises(ValueError):
        remove_vertex(parse("+(-(+,-))"), 1)  # two children


def test_contract_path_keeps_child_slot():
    t = parse("+(+,-(-),+)")
    assert remove_vertex(t, 2) == parse("+(+,-,+)")


def test_reductions_shrink_and_stay_valid(u4):
    # Constructing the results re-runs all PlaneTree invariants; here we
    # only need the size bookkeeping.
    for t in u4.trees:
        for v in range(t.size):
            if len(t.children[v]) <= 1 and t.size > 1:
                assert remove_vertex(t, v).size == t.size - 1
        for u in range(t.size):
            for x in t.children[u]:
                interior = []
                while len(t.children[x]) == 1:
                    interior.append(x)
                    x = t.children[x][0]
                    assert remove_path(t, interior).size == t.size - len(interior)


def test_reductions_remove_one_vertex():
    t = parse("+(-(+),+)")
    got = [r.text for r in reductions(t)]
    # Two leaf deletions, then the contraction of the single-child "-".
    assert got == ["+(-,+)", "+(-(+))", "+(+,+)"]
    # Leaf deletion and contracting the middle vertex give the same tree.
    assert [r.text for r in reductions(parse("-(+(+))"))] == ["-(+)", "+(+)", "-(+)"]
    assert list(reductions(parse("+"))) == []
    for n in range(2, 6):
        for t in enumerate_trees(n):
            assert all(r.size == n - 1 for r in reductions(t))


def test_reductions_match_structural_reference_up_to_7():
    # The cover indices of the sweeps are checked against the same
    # reference in tests/test_minors.py.
    for n in range(1, 8):
        for t in enumerate_trees(n):
            expected = [r.text for r in reference_reductions(t)]
            assert [r.text for r in reductions(t)] == expected


def test_removal_matches_the_text_splice_up_to_7():
    # The library removes a vertex on the preorder arrays; the oracle
    # splices the canonical text instead.
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    assert len(trees) == 20_134
    for t in trees:
        for v in range(t.size):
            if len(t.children[v]) <= 1 and t.size > 1:
                assert remove_vertex(t, v).text == text_splice(t, v)


@settings(deadline=None)
@given(plane_trees())
def test_reduction_operations_match_structural_reference(t):
    expected = [r.text for r in reference_reductions(t)]
    assert [r.text for r in reductions(t)] == expected
    for v in range(t.size):
        if len(t.children[v]) <= 1 and t.size > 1:
            assert remove_vertex(t, v).text == splice(t, {v}).text == text_splice(t, v)
        else:
            with pytest.raises(ValueError):
                remove_vertex(t, v)
    for u in range(t.size):
        for w in range(t.size):
            interior = path_interior(t, u, w)
            if interior and all(len(t.children[x]) == 1 for x in interior):
                assert remove_path(t, interior).text == splice(t, set(interior)).text


def test_deep_and_wide_trees():
    # No recursion limit: a 10^5-deep path and a 10^5-leaf star.  Their
    # JSON text is checked against its closed form, and the reader gets
    # the reference's dicts, since json.loads itself recurses.
    leaf = '{"label":"-","children":[]}'
    n = 100_000
    path_text = "+(" * (n - 1) + "-" + ")" * (n - 1)
    path = parse(path_text)
    assert path.size == n and path.text == path_text
    assert remove_vertex(path, n - 1).text == "+(" * (n - 2) + "+" + ")" * (n - 2)
    assert remove_vertex(path, 0).text == path_text[2:-1]
    assert remove_vertex(path, 1).text == "+(" * (n - 2) + "-" + ")" * (n - 2)
    for v in (0, 1, n // 2, n - 2, n - 1):
        assert remove_vertex(path, v).text == text_splice(path, v)
    # Reductions come lazily: the leaf, the root, then vertex 1.
    first = islice(reductions(path), 3)
    assert [r.text for r in first] == [remove_vertex(path, v).text for v in (n - 1, 0, 1)]
    assert tree_to_json(path) == '{"label":"+","children":[' * (n - 1) + leaf + "]}" * (n - 1)
    assert tree_from_json_obj(tree_to_json_obj(path)) == path

    star_text = "+(" + ",".join("-" * (n - 1)) + ")"
    star = parse(star_text)
    assert star.size == n and star.text == star_text
    assert remove_vertex(star, 1).size == n - 1
    for v in (1, 2, n // 2, n - 1):
        assert remove_vertex(star, v).text == text_splice(star, v)
    assert [r.text for r in islice(reductions(star), 2)] == [remove_vertex(star, v).text for v in (1, 2)]
    with pytest.raises(ValueError):
        remove_vertex(star, 0)
    assert tree_to_json(star) == '{"label":"+","children":[' + ",".join([leaf] * (n - 1)) + "]}"
    assert tree_from_json_obj(tree_to_json_obj(star)) == star


# --- JSON form ---------------------------------------------------------------


def test_json_round_trip():
    t = parse("+(-,+(-))")
    obj = json.loads(tree_to_json(t))
    assert obj == {
        "label": "+",
        "children": [
            {"label": "-", "children": []},
            {"label": "+", "children": [{"label": "-", "children": []}]},
        ],
    }
    assert tree_from_json_obj(obj) == t


def test_json_text_matches_reference_for_every_tree_up_to_size_7():
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    assert len(trees) == 20_134
    for t in trees:
        assert tree_to_json(t) == tree_to_json_text(t)


def test_json_rejects_bad_label():
    with pytest.raises(ValueError):
        tree_from_json_obj({"label": "0", "children": []})


@pytest.mark.parametrize(
    "obj, fault",
    [
        ({"children": []}, "invalid label None"),
        ({"label": ["+"], "children": []}, "invalid label ['+']"),
        ({"label": "+", "children": "+-"}, "children must be a list, got str"),
        ({"label": "+", "children": [["+"]]}, "must be an object, got list"),
        (["+"], "must be an object, got list"),
    ],
)
def test_json_rejects_malformed_objects(obj, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        tree_from_json_obj(obj)
