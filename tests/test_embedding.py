import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embedding_reference as reference

from hopfarb.embedding import (
    EmbeddingWitness,
    embed_witness,
    embeds,
    operation_closure,
    oracle_embeds,
    verify_witness,
)
from hopfarb.trees import (
    PlaneTree,
    parse,
    random_tree,
    reductions,
    remove_vertex,
)
from splice_reference import splice
from strategies import plane_trees


# --- decision examples -------------------------------------------------------


@pytest.mark.parametrize(
    "sub,sup,expected",
    [
        ("+", "+", True),
        ("+", "+(+)", True),
        ("+", "-(+)", True),  # anchor below the root
        ("+", "-(-)", False),
        ("+(+)", "+(-(+))", True),  # path contraction through the minus vertex
        ("+(-)", "-(+)", False),
        ("+(+,-)", "+(-,+)", False),  # plane order must be preserved
        ("+(+,-)", "+(+,-)", True),
        ("+(+,-)", "+(+,+,-)", True),
        ("+(-,+)", "+(+,-,+)", True),
        ("+(+,+)", "+(+(+))", False),  # siblings need distinct subtrees
        ("-", "+(+)", False),
    ],
)
def test_embeds_examples(sub, sup, expected):
    assert embeds(parse(sub), parse(sup)) is expected


def test_embeds_size_monotone(u3):
    for t1 in u3.trees:
        for t2 in u3.trees:
            if embeds(t1, t2):
                assert t1.size <= t2.size
                if t1.size == t2.size:
                    assert t1 == t2


# --- witnesses ---------------------------------------------------------------


def test_witness_prefers_preorder_first_anchor():
    w = embed_witness(parse("+"), parse("+(+)"))
    assert w == EmbeddingWitness((0,), ())


def test_witness_for_contraction():
    w = embed_witness(parse("+(+)"), parse("+(-(+))"))
    assert w.vertex_map == (0, 2)
    assert w.edge_paths == ((0, 1, 2),)
    assert verify_witness(parse("+(+)"), parse("+(-(+))"), w)


def test_witness_none_on_mismatch():
    assert embed_witness(parse("+"), parse("-")) is None


def test_witness_json_form():
    w = embed_witness(parse("+(+)"), parse("+(-(+))"))
    assert w.to_json_obj() == {
        "vertex_map": [[0, 0], [1, 2]],
        "edge_paths": [[0, 1, 2]],
    }


def test_verify_witness_identity():
    t = parse("+(+)")
    assert verify_witness(t, t, EmbeddingWitness((0, 1), ((0, 1),)))


def test_verify_witness_rejects_label_violation():
    assert not verify_witness(parse("+"), parse("+(-)"), EmbeddingWitness((1,), ()))


def test_verify_witness_rejects_bad_paths():
    t1, t2 = parse("+(+)"), parse("+(+(+))")
    # Path does not end at the child's image.
    assert not verify_witness(t1, t2, EmbeddingWitness((0, 2), ((0, 1),)))
    # Path steps must descend parent -> child.
    assert not verify_witness(t1, t2, EmbeddingWitness((2, 0), ((2, 1, 0),)))
    # Duplicate images.
    assert not verify_witness(t1, t2, EmbeddingWitness((0, 0), ((0, 0),)))
    # An inner path vertex that is not a vertex of the host.
    t3 = parse("+(-(+))")
    assert not verify_witness(t1, t3, EmbeddingWitness((0, 2), ((0, 9, 2),)))
    assert not verify_witness(t1, t3, EmbeddingWitness((0, 2), ((0, -2, 2),)))


def test_verify_witness_refuses_entries_that_are_not_ints():
    # 1.0 and True compare equal to vertex 1 but are no vertex: False, not an error.
    t = parse("+(+)")
    assert verify_witness(t, t, EmbeddingWitness((0, 1.0), ((0, 1),))) is False
    assert verify_witness(t, t, EmbeddingWitness((0, 1), ((0, 1.0),))) is False
    assert verify_witness(t, t, EmbeddingWitness((0, True), ((0, 1),))) is False


def test_verify_witness_rejects_order_violation():
    t1, t2 = parse("+(+,-)"), parse("+(-,+)")
    w = EmbeddingWitness((0, 2, 1), ((0, 2), (0, 1)))
    assert not verify_witness(t1, t2, w)


def test_verify_witness_rejects_shared_interior():
    # Both edges routed through the same middle vertex of the host.
    t1, t2 = parse("+(+,+)"), parse("+(+(+,+))")
    w = EmbeddingWitness((0, 2, 3), ((0, 1, 2), (0, 1, 3)))
    assert not verify_witness(t1, t2, w)


def test_verify_witness_rejects_every_single_entry_path_change(u4):
    # An edge path is the one descending path between two images, so any
    # change of one entry fails, and an entry that is no vertex gives False.
    for t1 in u4.trees:
        for t2 in u4.trees:
            if not embeds(t1, t2):
                continue
            w = embed_witness(t1, t2)
            assert verify_witness(t1, t2, w)
            for k, path in enumerate(w.edge_paths):
                changed = [path[:i] + path[i + 1 :] for i in range(len(path))]  # dropped
                changed += [
                    path[:i] + (x,) + path[i + 1 :]
                    for i in range(len(path))
                    for x in (*range(-1, t2.size + 1), "x")
                    if x != path[i]
                ]
                changed += [
                    path[:i] + (x,) + path[i:] for i in range(len(path) + 1) for x in range(t2.size)
                ]
                for bad in changed:
                    paths = w.edge_paths[:k] + (bad,) + w.edge_paths[k + 1 :]
                    assert verify_witness(t1, t2, EmbeddingWitness(w.vertex_map, paths)) is False


def test_witness_coupling_and_soundness(u4, u5):
    # embeds is true exactly when a witness exists, and every produced
    # witness passes independent verification.
    for t1 in u4.trees:
        for t2 in u5.trees:
            w = embed_witness(t1, t2)
            assert (w is not None) == embeds(t1, t2)
            if w is not None:
                assert verify_witness(t1, t2, w)


# --- brute-force oracle ------------------------------------------------------


def test_operation_closure_frozen_example():
    assert operation_closure(parse("+(+)")) == {"+(+)", "+"}
    assert operation_closure(parse("+(-(+))")) == {
        "+(-(+))", "+(-)", "-(+)", "+(+)", "+", "-",
    }


def test_oracle_examples():
    assert oracle_embeds(parse("+(+)"), parse("+(-(+))"))
    assert not oracle_embeds(parse("-"), parse("+(+)"))


def test_operation_closure_takes_any_size():
    # Size limits are the command line's policy, not the library's.
    nine = parse("+(+(+(+(+(+(+(+(+))))))))")
    assert operation_closure(nine) == {"+(" * k + "+" + ")" * k for k in range(9)}
    assert oracle_embeds(parse("+"), nine)


def test_dp_agrees_with_oracle_small(u3, u4):
    for t2 in u4.trees:
        reachable = operation_closure(t2)
        for t1 in u3.trees:
            assert embeds(t1, t2) == (t1.text in reachable)


def test_dp_agrees_with_oracle_full(u4, u6):
    # Exhaustive cross-validation of the dynamic program against the
    # operation-closure semantics for |t1| <= 4, |t2| <= 6.
    for t2 in u6.trees:
        reachable = operation_closure(t2)
        for t1 in u4.trees:
            assert embeds(t1, t2) == (t1.text in reachable), (t1.text, t2.text)


@settings(deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32),
    st.sampled_from(("random", "minor", "minor with one sign flipped")),
    st.randoms(use_true_random=False),
)
def test_dp_witness_and_oracle_agree_on_random_pairs(n1, n2, seed, kind, rnd):
    t2 = random_tree(n2, seed)
    if kind == "random":
        t1 = random_tree(n1, seed + 1)
    else:  # a chain of reductions, so that many pairs do embed
        t1 = t2
        for _ in range(rnd.randrange(n2)):
            t1 = rnd.choice(list(reductions(t1)))
        if kind == "minor with one sign flipped":
            labels = list(t1.labels)
            v = rnd.randrange(t1.size)
            labels[v] = -labels[v]
            t1 = PlaneTree(tuple(labels), t1.parents)
    decided = embeds(t1, t2)
    assert decided == oracle_embeds(t1, t2), (t1.text, t2.text)
    w = embed_witness(t1, t2)
    assert (w is not None) == decided
    if w is not None:
        assert verify_witness(t1, t2, w)


# --- full-table reference ----------------------------------------------------


def test_dp_matches_table_reference_up_to_5(u5):
    # The witness itself, not only its validity, on every pair.
    for t1 in u5.trees:
        for t2 in u5.trees:
            w = embed_witness(t1, t2)
            assert w == reference.embed_witness(t1, t2), (t1.text, t2.text)
            assert embeds(t1, t2) == (w is not None)


@settings(deadline=None)
@given(plane_trees(8), plane_trees(5), st.data())
def test_dp_matches_table_reference_on_random_trees(t2, t1, data):
    # Half the time ``t1`` is a minor of ``t2``, perhaps with one sign
    # flipped, so that many pairs embed.
    if data.draw(st.booleans()):
        removable = [v for v in range(t2.size) if len(t2.children[v]) <= 1]
        gone = data.draw(st.sets(st.sampled_from(removable), max_size=t2.size - 1))
        minor = splice(t2, gone)
        labels = list(minor.labels)
        if data.draw(st.booleans()):
            v = data.draw(st.integers(0, minor.size - 1))
            labels[v] = -labels[v]
        t1 = PlaneTree(tuple(labels), minor.parents)
    w = embed_witness(t1, t2)
    assert w == reference.embed_witness(t1, t2), (t1, t2)
    assert embeds(t1, t2) == (w is not None)
    if w is not None:
        assert verify_witness(t1, t2, w)


def test_dp_on_a_10_4_vertex_host():
    host = random_tree(10_000, 7)
    wide = parse("+(" + ",".join(["+"] * 50) + ")")  # no vertex has 50 children
    for t1 in (random_tree(12, 3), wide, parse("-")):
        start = time.perf_counter()
        decided, w = embeds(t1, host), embed_witness(t1, host)
        assert time.perf_counter() - start < 1.0
        assert w == reference.embed_witness(t1, host)
        assert decided == (w is not None) == (t1 is not wide)


_PATH = 50_001


@pytest.mark.parametrize(
    "host_text,patterns,peak_mib",
    [
        pytest.param(
            "+(" + ",".join("+-"[i % 2] for i in range(100_000)) + ")",
            {"+(-,+,-)": (0, 2, 3, 4), "+(+(+))": None, "-(+)": None, "-": (2,)},
            25,
            id="star-with-10^5-leaves",
        ),
        pytest.param(
            "+(" * (_PATH - 1) + "-" + ")" * (_PATH - 1),
            {
                "+(-)": (0, _PATH - 1),
                "+(+(+(-)))": (0, 1, 2, _PATH - 1),
                "+(-(+))": None,
                "+(+,-)": None,
            },
            17,
            id="path-of-50001",
        ),
    ],
)
def test_dp_on_large_hosts_in_linear_memory(host_text, patterns, peak_mib):
    # The peak bounds are about 1.5x what a DP linear in the host reaches
    # here on CPython 3.11 (11-19 MiB, the host's children and preorder
    # intervals included).  Per-vertex ancestor masks would need
    # Theta(n^2) bits: over 300 MiB on the path.
    host = parse(host_text)
    for text, vertex_map in patterns.items():
        t1 = parse(text)
        start = time.perf_counter()
        decided, w = embeds(t1, host), embed_witness(t1, host)
        assert time.perf_counter() - start < 2.0, text
        assert decided == (w is not None)
        assert (None if w is None else w.vertex_map) == vertex_map, text
        if w is not None:
            assert verify_witness(t1, host, w)
    host = parse(host_text)  # fresh, so that its rows are built while traced
    tracemalloc.start()
    try:
        for text in patterns:
            t1 = parse(text)
            embeds(t1, host)
            embed_witness(t1, host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mib * 2**20, peak


@settings(deadline=None, max_examples=50)
@given(st.integers(20, 120), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_dp_matches_table_reference_on_wide_hosts(n2, seed, rnd):
    # Hosts of 20-120 vertices have vertices with many children, so the
    # greedy bisects across many child subtrees.  Patterns: a minor cut
    # from the host in up to three rounds, the same with one sign
    # flipped, and a small random tree.
    t2 = random_tree(n2, seed)
    minor = t2
    for _ in range(rnd.randint(1, 3)):
        removable = [v for v in range(minor.size) if len(minor.children[v]) <= 1]
        gone = {v for v in removable if rnd.random() < 0.4}
        if len(gone) < minor.size:
            minor = splice(minor, gone)
    labels = list(minor.labels)
    v = rnd.randrange(minor.size)
    labels[v] = -labels[v]
    flipped = PlaneTree(tuple(labels), minor.parents)
    for t1 in (minor, flipped, random_tree(rnd.randint(3, 7), seed + 1)):
        w = embed_witness(t1, t2)
        assert w == reference.embed_witness(t1, t2), (t1.text, t2.text)
        assert embeds(t1, t2) == (w is not None)
        if w is not None:
            assert verify_witness(t1, t2, w)


# --- quasi-order axioms and closure consistency ------------------------------


def test_reflexive_on_universe_5(u5):
    for t in u5.trees:
        assert embeds(t, t)


def test_transitive_on_universe_5(u5, pairwise_relation):
    pairs = pairwise_relation(u5)
    succ = [0] * len(u5.trees)
    for i, j in pairs:
        succ[i] |= 1 << j
    for i, j in pairs:
        assert succ[j] & ~succ[i] == 0, (i, j)


def test_single_reductions_embed_back(u4):
    for t in u4.trees:
        results = []
        for v in range(t.size):
            if len(t.children[v]) <= 1 and t.size > 1:
                results.append(remove_vertex(t, v))
        for u in range(t.size):
            for x in t.children[u]:
                interior = []
                while len(t.children[x]) == 1:
                    interior.append(x)
                    x = t.children[x][0]
                    # Deepest vertex first: a removal renumbers only the vertices after it.
                    results.append(reduce(remove_vertex, reversed(interior), t))
        for r in results:
            assert embeds(r, t), (r.text, t.text)
