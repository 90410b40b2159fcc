import hashlib
import random
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfarb.embedding
import hopfarb.trees
from hopfarb import minors
from hopfarb.embedding import embeds, oracle_embeds
from hopfarb.invariants import boundary_components, fingerprint
from hopfarb.minors import (
    Predicate,
    _REGISTRY,
    _centre_plan,
    _keys,
    _word_map,
    audit_monotone,
    check_excluded_family,
    evaluate,
    fingerprint_classes,
    minimal_excluded,
    poset,
    poset_to_csv,
    poset_to_dot,
    universe,
)
from hopfarb.trees import (
    PlaneTree,
    _removable,
    _shapes,
    _sign_words,
    _stamped,
    count,
    enumerate_trees,
    parse,
    random_tree,
    reductions,
    remove_vertex,
    tree_from_json_obj,
    unrank,
)
from splice_reference import reductions as reference_reductions
from spread_reference import spread as byte_spread


# --- universes ---------------------------------------------------------------


def test_universe_sizes():
    assert len(universe(2)) == 6
    assert len(universe(4)) == 102
    assert [t.size for t in universe(3).trees] == [1] * 2 + [2] * 4 + [3] * 16
    with pytest.raises(ValueError):
        universe(0)


def test_universe_duplicate_free(u5):
    texts = [t.text for t in u5.trees]
    assert len(set(texts)) == len(texts) == sum(count(k) for k in range(1, 6))


# --- poset -------------------------------------------------------------------


def test_poset_universe_2_exact(u2):
    report = poset(u2)
    texts = [t.text for t in u2.trees]
    assert texts == ["+", "-", "+(+)", "+(-)", "-(+)", "-(-)"]
    expected = {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)}
    assert set(report.relation_pairs) == expected
    assert report.hasse_pairs == report.relation_pairs  # no 3-chains at nmax 2
    assert all(i != j for i, j in report.relation_pairs)


def test_poset_stats(u2):
    stats = poset(u2).stats
    assert stats["trees"] == 6
    assert stats["trees_per_size"] == {1: 2, 2: 4}
    assert stats["relation_pairs"] == 6
    assert stats["pairs_per_size"] == {"1->2": 6}


def test_pairs_per_size_match_a_count_over_the_pairs():
    # The reference counts every relation pair; keys in the order first met.
    for n in range(1, 8):
        u = universe(n)
        report = poset(u)
        sizes = [t.size for t in u.trees]
        reference = Counter((sizes[i], sizes[j]) for i, j in report.relation_pairs)
        expected = [(f"{a}->{b}", c) for (a, b), c in reference.items()]
        assert list(report.stats["pairs_per_size"].items()) == expected


def test_relation_transitively_closed(u4):
    pairs = poset(u4).relation_pairs
    succ = [0] * len(u4.trees)
    for i, j in pairs:
        succ[i] |= 1 << j
    for i, j in pairs:
        assert succ[j] & ~succ[i] == 0


def test_poset_matches_pairwise_dp(u5, pairwise_relation):
    assert list(poset(u5).relation_pairs) == pairwise_relation(u5)


def _naive_pairs(rows):
    return [(i, j) for i, row in enumerate(rows) for j, c in enumerate(bin(row)[:1:-1]) if c == "1"]


@pytest.mark.parametrize(
    "rows",
    [
        [1 | 1 << 10**5, 0, (1 << 300) - 1, 1 << 10**5],  # sparse and wide, empty, dense
        [0, 0],
        [],
        [0b101, 0, 0b10],
    ],
)
def test_pairs_reads_every_set_bit_in_lexicographic_order(rows):
    assert list(minors._pairs(rows)) == _naive_pairs(rows)


def test_pairs_share_one_int_per_column():
    first, second = minors._pairs([1 << 1000, 1 << 1000])
    assert first == (0, 1000) and second == (1, 1000)
    assert first[1] is second[1]


def test_hasse_is_transitive_reduction(u5, pairwise_relation):
    # The Hasse pairs are the DP relation's pairs (i, j) with no k
    # strictly between them in the order.
    relation = pairwise_relation(u5)
    up = [0] * len(u5.trees)
    down = [0] * len(u5.trees)
    for i, j in relation:
        up[i] |= 1 << j
        down[j] |= 1 << i
    reduction = [(i, j) for i, j in relation if not up[i] & down[j]]
    assert list(poset(u5).hasse_pairs) == reduction


# --- predicates --------------------------------------------------------------


def test_predicate_parse():
    p = Predicate.parse("size_le:3")
    assert (p.name, p.params, p.knots_only) == ("size_le", (3,), False)
    assert Predicate.parse("all_positive").params == ()
    assert Predicate.parse("top_defect_ub_le:0").knots_only
    with pytest.raises(ValueError):
        Predicate.parse("no_such_thing")
    with pytest.raises(ValueError):
        Predicate.parse("size_le")  # missing parameter
    with pytest.raises(ValueError):
        Predicate.parse("all_positive:1")  # spurious parameter
    with pytest.raises(ValueError, match="takes no parameter"):
        Predicate.parse("all_positive:")  # a bare separator is a parameter too
    with pytest.raises(ValueError, match="needs an integer parameter, got 'x'"):
        Predicate.parse("genus_le:x")


def test_evaluate_examples():
    assert evaluate(Predicate.parse("size_le:3"), parse("+(+,-)"))
    assert not evaluate(Predicate.parse("all_positive"), parse("+(-)"))
    assert evaluate(Predicate.parse("top_defect_ub_le:0"), parse("+(+)"))
    assert not evaluate(Predicate.parse("top_defect_ub_le:0"), parse("+(-)"))
    assert evaluate(Predicate.parse("sig_abs_le:2"), parse("+(+)"))
    assert evaluate(Predicate.parse("det_le:3"), parse("+(+)"))
    assert not evaluate(Predicate.parse("det_le:3"), parse("+(-)"))


def test_evaluate_domain_errors():
    with pytest.raises(ValueError, match="unknown predicate"):
        evaluate(Predicate("bogus"), parse("+"))
    with pytest.raises(ValueError, match="knots only"):
        evaluate(Predicate.parse("top_defect_ub_le:1"), parse("+"))


def test_predicate_reads_the_registry():
    # knots_only comes from the registry, not from how the value was built.
    assert Predicate("top_defect_ub_le", (0,)).knots_only
    assert Predicate("top_defect_ub_le", (0,)) == Predicate.parse("top_defect_ub_le:0")
    with pytest.raises(ValueError, match="knots only"):
        evaluate(Predicate("top_defect_ub_le", (0,)), parse("+"))
    # A parameter count the registry does not take is refused on construction.
    for name, params in (("size_le", ()), ("size_le", (1, 2)), ("all_positive", (1,))):
        with pytest.raises(ValueError, match="wrong parameter count"):
            Predicate(name, params)
    # So is a parameter that is not an int, a bool included.
    for k in ("3", 3.0, True, None):
        with pytest.raises(ValueError, match=f"needs an integer parameter, got {k!r}"):
            Predicate("size_le", (k,))
    with pytest.raises(ValueError, match="needs an integer parameter"):
        evaluate(Predicate("size_le", ("3",)), parse("+"))


# --- excluded-minor machinery ------------------------------------------------


def test_check_excluded_family():
    minus = parse("-")
    assert check_excluded_family(parse("+(+(+))"), [minus])
    assert not check_excluded_family(parse("+(-)"), [minus])
    assert check_excluded_family(parse("+(-)"), [])


def test_minimal_excluded_all_positive():
    assert [t.text for t in minimal_excluded(Predicate.parse("all_positive"), 4)] == ["-"]


def test_minimal_excluded_size_bound():
    mined = minimal_excluded(Predicate.parse("size_le:3"), 5)
    assert len(mined) == 80
    assert all(t.size == 4 for t in mined)


def test_minimal_excluded_empty_when_unviolated():
    assert minimal_excluded(Predicate.parse("genus_le:99"), 3) == []


def test_minimal_excluded_guard():
    with pytest.raises(ValueError):
        minimal_excluded(Predicate.parse("all_positive"), 0)


def test_minimal_excluded_takes_any_bound():
    # Size limits are the command line's policy, not the library's.
    assert [t.text for t in minimal_excluded(Predicate.parse("all_positive"), 7)] == ["-"]


def test_minimal_excluded_mines_knots_only_predicates_over_knots():
    # A link never violates a knots-only predicate, so +(-) and -(+) are
    # minimal although the links + and - embed into them.
    def mined(k):
        return [t.text for t in minimal_excluded(Predicate.parse(f"top_defect_ub_le:{k}"), 6)]

    assert mined(0) == ["+(-)", "-(+)"]
    assert (len(mined(1)), len(mined(2))) == (18, 300)


def test_minimal_excluded_matches_pairwise_definition(u5, pairwise_relation):
    # Violators with no violator strictly below them under the DP
    # relation, for every predicate, including the ones that are not
    # minor-monotone: there a violator can sit below a non-violator.
    specs = {
        "size_le": "size_le:3",
        "genus_le": "genus_le:1",
        "all_positive": "all_positive",
        "sig_abs_le": "sig_abs_le:1",
        "det_le": "det_le:3",
        "top_defect_ub_le": "top_defect_ub_le:1",
    }
    assert set(specs) == set(_REGISTRY)
    relation = pairwise_relation(u5)
    below_satisfier = {}
    for spec in specs.values():
        p = Predicate.parse(spec)
        # A knots-only predicate is violated by knots only.
        violates = [
            (not p.knots_only or boundary_components(t) == 1) and not evaluate(p, t)
            for t in u5.trees
        ]
        covered = {j for i, j in relation if violates[i]}
        expected = sorted(
            (t for j, t in enumerate(u5.trees) if violates[j] and j not in covered),
            key=lambda t: t.text,
        )
        assert expected and minimal_excluded(p, 5) == expected, p.name
        below_satisfier[p.name] = sum(1 for i, j in relation if violates[i] and not violates[j])
    assert below_satisfier["sig_abs_le"] == 1070
    assert below_satisfier["det_le"] == 12
    assert below_satisfier["genus_le"] == below_satisfier["size_le"] == 0


def test_cover_indices_match_the_reference_up_to_7():
    # Every cover index of the sweeps' walk, unranked in the previous
    # size, is the tree of the matching remove_vertex call and of the
    # structural reference, for every tree with at most 7 vertices.
    start = [0, 0]  # start[n]: the universe position of the first tree of size n
    for n in range(1, 7):
        start.append(start[-1] + count(n))
    for t, covers in zip(minors._trees(7), minors._covers(7), strict=True):
        got = [unrank(t.size - 1, c - start[t.size - 1]) for c in covers]
        assert got == [remove_vertex(t, v) for v in _removable(t)] == reference_reductions(t)


def _word_map_reads(n, L):
    # Entry s: the flag of size n-1 that word s of size n reads.
    return [(s >> L + 1) << L | s & ((1 << L) - 1) for s in range(1 << n)]


def _gaps(n):
    # Bit s of gaps[k] is set when bit k of s is clear.
    return [sum(1 << s for s in range(1 << n) if not s >> k & 1) for k in range(n - 1)]


def test_spread_matches_the_word_map():
    # One-hot flags for every n <= 9 and L: bit s of the spread is set
    # exactly when word s reads the one set flag, so each output bit's
    # source is checked.  The byte reference agrees.
    for n in range(1, 10):
        gaps = _gaps(n)
        for L in range(n):
            reads = _word_map_reads(n, L)
            for i in range(1 << n - 1):
                got = minors._spread(1 << i, L, gaps)
                assert got == sum(1 << s for s, r in enumerate(reads) if r == i), (n, L, i)
                ref = byte_spread(bytes(j == i for j in range(1 << n - 1)), L)
                assert got == sum(1 << s for s, f in enumerate(ref) if f), (n, L, i)


def test_spread_matches_the_byte_reference_on_random_flags():
    rng = random.Random(7)
    for n in range(1, 12):
        gaps = _gaps(n)
        for L in range(n):
            reads = _word_map_reads(n, L)
            for _ in range(4):
                flags = rng.getrandbits(1 << n - 1)
                got = minors._spread(flags, L, gaps)
                assert got == sum(1 << s for s, r in enumerate(reads) if flags >> r & 1), (n, L)
                as_bytes = bytes(flags >> j & 1 for j in range(1 << n - 1))
                ref = byte_spread(as_bytes, L)
                assert got == sum(f << s for s, f in enumerate(ref)), (n, L)


@pytest.mark.parametrize(
    "spec,evaluated",
    [("genus_le:1", (294, 550)), ("all_positive", (66, 198)), ("top_defect_ub_le:1", (262, 262))],
)
def test_mining_builds_only_the_trees_it_evaluates(monkeypatch, spec, evaluated):
    # Mining walks shapes and stamps a tree only for a sign word with no
    # violator at or below any of its covers; no size is enumerated.
    def no_enumeration(n):
        raise AssertionError("enumerated a size")

    seen = []
    monkeypatch.setattr(minors, "enumerate_trees", no_enumeration)
    monkeypatch.setattr(minors, "evaluate", lambda p, t: seen.append(t) or evaluate(p, t))
    for nmax, calls in zip((6, 7), evaluated):
        seen.clear()
        minimal_excluded(Predicate.parse(spec), nmax)
        assert len(set(seen)) == len(seen) == calls


def _all_positive_shapes(n):
    return [unrank(n, rank << n) for rank in range(count(n) >> n)]


def _distinct_reductions(nmax):
    # The DP calls of one walk up to ``nmax``: a shape's distinct reduced shapes.
    shapes = [t for n in range(2, nmax + 1) for t in _all_positive_shapes(n)]
    return sum(len({r.text for r in reference_reductions(t)}) for t in shapes)


@pytest.mark.parametrize("spec", ["genus_le:1", "all_positive", "size_le:3"])
def test_mining_calls_the_dp_through_minors(monkeypatch, spec):
    # One call per shape and distinct reduced shape, whatever the predicate:
    # the DP confirms each cover of a shape's all-'+' tree once, however many
    # removable vertices give it, and a cover it rejects is dropped for every
    # sign word.  The benchmark's self-test flips ``minors.embeds`` and needs
    # ``mine`` to call it.
    seen = []
    monkeypatch.setattr(minors, "embeds", lambda a, b: seen.append((a, b)) or embeds(a, b))
    for nmax, calls in ((6, 146), (7, 538)):
        seen.clear()
        minimal_excluded(Predicate.parse(spec), nmax)
        assert len(seen) == len(set(seen)) == _distinct_reductions(nmax) == calls
        for a, b in seen:
            assert set(a.labels) == set(b.labels) == {1}
            assert a in reference_reductions(b)


def test_the_walk_parses_nothing(monkeypatch):
    # The library parses only text it is given: a removal is a map on the
    # preorder arrays, and so are the reductions, the closure oracle and
    # every sweep.  Each cover's reduced shape is looked up by its parents
    # among the shapes the walk yielded one size earlier, and the DP runs
    # on that very object.
    t, host = parse("+(-(+),+)"), parse("-(+,-(+),+(+(-)),+)")
    sub, non_sub = parse("-(+,+)"), parse("+(-,-)")

    def no_parse(text):
        raise AssertionError(f"parsed {text!r}")

    calls = []
    monkeypatch.setattr(hopfarb.trees, "parse", no_parse)
    for module in (minors, hopfarb.embedding):  # a copy imported by name
        monkeypatch.setattr(module, "parse", no_parse, raising=False)
    assert [r.text for r in reductions(t)] == ["+(-,+)", "+(-(+))", "+(+,+)"]
    assert remove_vertex(host, 2).text == "-(+,+,+(+(-)),+)"
    assert oracle_embeds(sub, host) and not oracle_embeds(non_sub, host)
    assert poset(universe(5)).stats["hasse_pairs"] == 1570
    assert audit_monotone("genus", 5) == audit_monotone("betti", 5) == []
    assert len(minimal_excluded(Predicate.parse("genus_le:1"), 6)) == 48
    assert len(fingerprint_classes(5)) == 52
    monkeypatch.setattr(minors, "embeds", lambda a, b: calls.append((a, b)) or embeds(a, b))
    yielded = defaultdict(list)  # size -> the shapes the walk yielded
    for shape, covers in minors._walk(range(1, 7)):
        yielded[shape.size].append(shape)
    assert len(calls) == _distinct_reductions(6) == 146
    for a, b in calls:
        assert set(a.labels) == set(b.labels) == {1}
        assert a in reference_reductions(b)
        assert any(a is shape for shape in yielded[b.size - 1])


def test_a_flipped_dp_changes_the_mined_family(monkeypatch):
    # The benchmark's self-test, in process: a flipped DP rejects every
    # cover, so every violator becomes minimal.
    for spec in ("all_positive", "genus_le:1"):
        p = Predicate.parse(spec)
        mined = minimal_excluded(p, 6)
        with monkeypatch.context() as m:
            m.setattr(minors, "embeds", lambda a, b: not embeds(a, b))
            assert minimal_excluded(p, 6) != mined, spec


def test_the_dp_decides_inherited_witnesses(monkeypatch):
    # With a DP that finds nothing, every violator is minimal: the covers
    # are confirmed by the DP, not taken on trust, so no flag passes up.
    p = Predicate.parse("genus_le:1")
    violators = [t for n in range(1, 7) for t in enumerate_trees(n) if not evaluate(p, t)]
    monkeypatch.setattr(minors, "embeds", lambda a, b: False)
    assert minimal_excluded(p, 6) == sorted(violators, key=lambda t: t.text)


# SHA-256 of the canonical texts, one per line.  They were taken from
# earlier searches: the nmax 6 and 7 pins from one that tested each
# violator with the DP against the smaller minimal violators, the nmax 8
# pins from one that passed a minimal violator up the covers by text,
# and the nmax 9 and 10 pins from one that held each shape's flags as
# bytes.  So they pin that flagging along the cover indices changes no
# family.
# At nmax 7 the knots-only pins (2, 18 and 300 minimal knots) check that
# links pass the flag up.
MINED_SHA256 = {
    ("size_le:3", 6): "0bc1e73a245ef0208c1a06718b841d8926c97eb7851611c25875a678e25fb6b2",
    ("genus_le:1", 6): "692dbd368d47ea900aa9ead955d892c9b116ca334f3ea85c624c99d6d0955951",
    ("all_positive", 6): "3973e022e93220f9212c18d0d0c543ae7c309e46640da93a4a0314de999f5112",
    ("sig_abs_le:1", 6): "860c6ac68f17d645537027af1d39c1f863c5cf5d6e59dd21fd49cddcd348d11e",
    ("det_le:3", 6): "07ded2b8c7ad7f29deee7a078dcfc8e332bd17d2518d616cc46da1f57da98527",
    ("top_defect_ub_le:1", 6): "99b9597f779f28e4fa7aacd6835ab3aa10e33556b0761713873e90491e0f8d39",
    ("genus_le:1", 7): "692dbd368d47ea900aa9ead955d892c9b116ca334f3ea85c624c99d6d0955951",
    ("size_le:3", 7): "0bc1e73a245ef0208c1a06718b841d8926c97eb7851611c25875a678e25fb6b2",
    ("det_le:3", 7): "07ded2b8c7ad7f29deee7a078dcfc8e332bd17d2518d616cc46da1f57da98527",
    ("sig_abs_le:1", 7): "860c6ac68f17d645537027af1d39c1f863c5cf5d6e59dd21fd49cddcd348d11e",
    ("all_positive", 7): "3973e022e93220f9212c18d0d0c543ae7c309e46640da93a4a0314de999f5112",
    ("top_defect_ub_le:0", 7): "377b973afa4c53899b4edf15ce329c5c987fc070ccd074a96b71332f7d0e3163",
    ("top_defect_ub_le:1", 7): "99b9597f779f28e4fa7aacd6835ab3aa10e33556b0761713873e90491e0f8d39",
    ("top_defect_ub_le:2", 7): "5c943de34e748754efa6f7ca97c39d78163cdc084356ed4afbc6bed01f7d8091",
    ("genus_le:2", 8): "a814213ebeafb5c846ff4d5e92564fd4bc849d9007ba536b4ac2e735692acb48",
    ("det_le:3", 8): "07ded2b8c7ad7f29deee7a078dcfc8e332bd17d2518d616cc46da1f57da98527",
    ("top_defect_ub_le:0", 8): "4d8b087eff5d83ea11039edccab6161aef2152434c0f96983c9defe53e486488",
    ("genus_le:1", 9): "692dbd368d47ea900aa9ead955d892c9b116ca334f3ea85c624c99d6d0955951",
    ("top_defect_ub_le:0", 9): "4d8b087eff5d83ea11039edccab6161aef2152434c0f96983c9defe53e486488",
    ("top_defect_ub_le:1", 9): "429bffba202f02d36682604622cc7f0842128feaba87a62ef7797fa264de1dec",
    ("genus_le:1", 10): "692dbd368d47ea900aa9ead955d892c9b116ca334f3ea85c624c99d6d0955951",
    ("top_defect_ub_le:0", 10): "664fe0befe232dee4dca87d15005621e085b992b86b88db40067f52a1de29c3a",
    ("top_defect_ub_le:1", 10): "0614efa6302343770ddaa0b5b9a7a70a3defbbbede97e77f0853cdad3d6589ec",
}


@pytest.mark.parametrize("spec,nmax", sorted(MINED_SHA256))
def test_mined_families_are_pinned(spec, nmax):
    mined = minimal_excluded(Predicate.parse(spec), nmax)
    digest = hashlib.sha256("\n".join(t.text for t in mined).encode()).hexdigest()
    assert digest == MINED_SHA256[spec, nmax]


def test_mined_pins_cover_the_registry():
    assert {Predicate.parse(spec).name for spec, nmax in MINED_SHA256 if nmax == 6} == set(_REGISTRY)


def test_mined_family_soundness_and_completeness(u4):
    # Soundness: each mined tree violates p while all its strict minors
    # satisfy it.  Completeness (for minor-monotone predicates only, per
    # the minimal_excluded contract): testing against the mined family
    # agrees with direct evaluation on the whole universe.
    for spec in ("all_positive", "size_le:2", "genus_le:0"):
        p = Predicate.parse(spec)
        family = minimal_excluded(p, 4)
        for f in family:
            assert not evaluate(p, f)
            for t in u4.trees:
                if t.size < f.size and embeds(t, f):
                    assert evaluate(p, t)
        for t in u4.trees:
            assert check_excluded_family(t, family) == evaluate(p, t), (spec, t.text)


def test_signature_bound_is_not_minor_monotone():
    # Deleting the minus leaf of +(+(-)) raises |sigma| from 1 to 2, so
    # sig_abs_le violates the monotonicity precondition of
    # minimal_excluded; it stays in the registry for evaluation only.
    p = Predicate.parse("sig_abs_le:1")
    assert evaluate(p, parse("+(+(-))"))
    assert not evaluate(p, parse("+(+)"))
    assert embeds(parse("+(+)"), parse("+(+(-))"))


# --- monotonicity audits -----------------------------------------------------


def test_audit_monotone_empty():
    assert audit_monotone("genus", 4) == []
    assert audit_monotone("betti", 4) == []


@pytest.mark.parametrize("quantity", ["genus", "betti"])
def test_audit_stops_at_the_covers(monkeypatch, quantity):
    # No cover fails, so the relation is never built.
    def refuse(nmax):
        raise AssertionError("_order called")

    monkeypatch.setattr(minors, "_order", refuse)
    assert audit_monotone(quantity, 7) == []


def test_audit_falls_back_to_the_relation(monkeypatch):
    # The root's sign is not monotone: + embeds into -(-(+)), two
    # reductions up.  Every failing pair of the relation is reported,
    # not only failing covers.
    monkeypatch.setitem(minors._QUANTITIES, "root", lambda t: t.labels[0])
    u = universe(5)
    hasse, up = minors._order(5)
    root = [t.labels[0] for t in u.trees]
    expected = [(i, j) for i, j in _naive_pairs(up) if root[i] > root[j]]
    assert set(expected) - set(hasse)
    assert audit_monotone("root", 5) == expected


def test_audit_monotone_errors():
    with pytest.raises(ValueError, match="unknown quantity"):
        audit_monotone("sig", 3)
    with pytest.raises(ValueError, match="universe bound"):
        audit_monotone("genus", 0)


# --- fingerprint classes -----------------------------------------------------


def test_fingerprint_classes_size_1():
    assert fingerprint_classes(1) == [["+"], ["-"]]


def test_fingerprint_classes_size_2():
    assert fingerprint_classes(2) == [["+(+)"], ["+(-)", "-(+)"], ["-(-)"]]


def test_fingerprint_classes_partition():
    classes = fingerprint_classes(4)
    members = [text for c in classes for text in c]
    assert len(members) == len(set(members)) == count(4)
    assert all(parse(text).size == 4 for text in members)
    with pytest.raises(ValueError):
        fingerprint_classes(0)


def _neighbours(t):
    adj = [list(kids) for kids in t.children]
    for v, p in enumerate(t.parents):
        if p is not None:
            adj[v].append(p)
    return adj


def _plane_texts(t):
    """Every plane text of ``t`` over all roots and all child orders."""
    adj = _neighbours(t)

    def texts(v, parent):
        sign = "+" if t.labels[v] > 0 else "-"
        kids = [texts(w, v) for w in adj[v] if w != parent]
        if not kids:
            return {sign}
        return {
            sign + "(" + ",".join(seq) + ")"
            for order in permutations(kids)
            for seq in product(*order)
        }

    return set().union(*(texts(r, None) for r in range(t.size)))


def _unrooted_key(t):
    return _keys([t.labels], _centre_plan(t.parents))[0]


def _mirror(t):
    return PlaneTree(tuple(-l for l in t.labels), t.parents)


@pytest.mark.parametrize(
    "text,key",
    [
        ("+", "+()"),
        ("-(+)", "+()-()"),  # two centres
        ("+(+(-))", "+(+()-())"),
        ("+(+(+(+)))", "+(+())+(+())"),
        ("+(-(+(-(+))))", "+(-(+())-(+()))"),  # single-child steps below the centre
        ("-(+,-(+,+))", "-(+())-(+()+())"),
        ("-(+,-(+),+(-))", "-(+()+(-())-(+()))"),  # children sorted
    ],
)
def test_unrooted_key_is_the_centres_ahu_code(text, key):
    assert _unrooted_key(parse(text)) == key


def test_keys_of_a_shape_match_one_word_at_a_time():
    for n in range(1, 7):
        labels = [l for l, _ in _sign_words(n)]
        for shape in _shapes(n):
            plan = _centre_plan(shape.parents)
            assert _keys(labels, plan) == [_keys([w], plan)[0] for w in labels]


def test_unrooted_key_is_exact():
    for n in range(1, 6):
        trees = list(enumerate_trees(n))
        keys = [_unrooted_key(t) for t in trees]
        orbits = [_plane_texts(t) for t in trees]
        for i in range(len(trees)):
            for j in range(i):
                assert (keys[i] == keys[j]) == (not orbits[i].isdisjoint(orbits[j]))


def test_unrooted_key_counts():
    # One centre plan and one call per shape, as in ``fingerprint_classes``.
    counts = []
    for n in range(1, 9):
        labels, keys = [l for l, _ in _sign_words(n)], set()
        for shape in _shapes(n):
            keys.update(_keys(labels, _centre_plan(shape.parents)))
        counts.append(len(keys))
    assert counts == [2, 3, 6, 18, 54, 189, 700, 2778]


def test_shape_keys_count_the_unrooted_trees():
    # OEIS A000055: the trees on n unlabelled vertices, up to root and order.
    counts = [len({_centre_plan(s.parents)[2] for s in _shapes(n)}) for n in range(1, 10)]
    assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47]


def test_word_map_carries_keys_to_the_first_shape_with_the_shape_key():
    # Word s of any shape has the signed key of word ``_word_map(...)[s]`` of
    # the first shape with its shape key, as ``fingerprint_classes`` reads it.
    for n in range(1, 8):
        labels = [l for l, _ in _sign_words(n)]
        first = {}
        for shape in _shapes(n):
            plan = _centre_plan(shape.parents)
            _, _, shape_key, order = plan
            onto, onto_keys = first.setdefault(shape_key, (order, _keys(labels, plan)))
            words = _word_map(order, onto)
            assert sorted(words) == list(range(1 << n))
            assert _keys(labels, plan) == [onto_keys[s] for s in words]


def test_word_map_moves_each_sign_to_its_image():
    # Vertex order[i] of the shape gives its sign to vertex onto[i]; vertex v
    # is bit n-1-v, so here bit 0 goes to bit 1, bit 1 to bit 2 and bit 2 to bit 0.
    order, onto = [2, 0, 1], [1, 2, 0]
    assert _word_map(order, onto) == [0b000, 0b010, 0b100, 0b110, 0b001, 0b011, 0b101, 0b111]


def test_unrooted_key_matches_the_least_plane_text_up_to_7():
    # The brute-force key of a tree is its least text over all roots and
    # child orders; the centre codes must name the same classes, for one
    # centre and for two (20 of the 42 shapes of size 6 have two).
    for n in range(1, 8):
        plans, pairs = {}, set()
        for t in enumerate_trees(n):
            if t.parents not in plans:
                plans[t.parents] = _centre_plan(t.parents)
            pairs.add((_keys([t.labels], plans[t.parents])[0], min(_plane_texts(t))))
        assert len(pairs) == len({k for k, _ in pairs}) == len({m for _, m in pairs}), n
        if n == 6:
            assert sorted(len(plan[0]) for plan in plans.values()) == [1] * 22 + [2] * 20


def test_fingerprint_constant_on_keys(u5):
    seen = {}
    for t in u5.trees:
        fp = fingerprint(t)
        assert seen.setdefault(_unrooted_key(t), fp) == fp


@settings(deadline=None)
@given(st.integers(6, 10), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_key_and_fingerprint_ignore_root_and_order(n, seed, rnd):
    t = random_tree(n, seed)
    adj = _neighbours(t)
    # Re-root at a random vertex and shuffle every child list; the JSON
    # form numbers the result in preorder again.
    root = rnd.randrange(n)
    nodes = [{"label": "+" if s > 0 else "-"} for s in t.labels]
    parents = [None] * n
    order = [root]
    for v in order:
        kids = [w for w in adj[v] if w != parents[v]]
        rnd.shuffle(kids)
        for w in kids:
            parents[w] = v
        nodes[v]["children"] = [nodes[w] for w in kids]
        order.extend(kids)
    moved = tree_from_json_obj(nodes[root])
    assert _unrooted_key(moved) == _unrooted_key(t)
    assert fingerprint(moved) == fingerprint(t)


def _mirror_fingerprint(t):
    fp = fingerprint(t)
    return replace(fp, signature=-fp.signature)


def test_mirror_negates_only_the_signature_up_to_6():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert fingerprint(_mirror(t)) == _mirror_fingerprint(t)


@settings(deadline=None)
@given(st.integers(8, 16), st.integers(0, 2**32))
def test_mirror_negates_only_the_signature(n, seed):
    t = random_tree(n, seed)
    assert fingerprint(_mirror(t)) == _mirror_fingerprint(t)


def test_fingerprint_classes_match_unmemoized():
    # At n = 6, 91 of the 189 keys take the fingerprint derived from their mirror's.
    for n in range(1, 7):
        groups = defaultdict(list)
        for t in enumerate_trees(n):
            groups[fingerprint(t)].append(t)
        reference = [sorted(g, key=lambda t: t.text) for g in groups.values()]
        reference.sort(key=lambda g: g[0].text)
        assert fingerprint_classes(n) == [[t.text for t in g] for g in reference]


def test_fingerprint_classes_fingerprint_each_form_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return fingerprint(t)

    monkeypatch.setattr(minors, "fingerprint", counted)
    assert len(fingerprint_classes(6)) == 147
    # One call per mirror pair of the 189 keys, 7 of them their own mirror.
    assert len(calls) == 98
    keys = [_unrooted_key(t) for t in calls]
    mirrors = [_unrooted_key(_mirror(t)) for t in calls]
    assert len(set(keys)) == 98
    assert sum(k == m for k, m in zip(keys, mirrors)) == 7
    assert set(keys).isdisjoint(m for k, m in zip(keys, mirrors) if k != m)


def test_fingerprint_classes_stamp_only_the_fingerprinted_trees(monkeypatch):
    # One tree per fingerprint call, not one per word: the classes hold texts.
    stamped = []

    def counted(shape, words):
        for t in _stamped(shape, words):
            stamped.append(t)
            yield t

    monkeypatch.setattr(minors, "_stamped", counted)
    classes = fingerprint_classes(6)
    assert len(stamped) == 98
    assert sum(map(len, classes)) == count(6)
    assert all(type(text) is str for c in classes for text in c)


def test_fingerprint_classes_key_one_shape_per_unrooted_tree(monkeypatch):
    # 42 plane shapes of size 6 and 132 of size 7, but 6 and 11 unrooted trees.
    keyed = []
    monkeypatch.setattr(minors, "_keys", lambda words, plan: keyed.append(plan) or _keys(words, plan))
    for n, shapes in ((6, 6), (7, 11)):
        keyed.clear()
        fingerprint_classes(n)
        assert len(keyed) == len({shape_key for _, _, shape_key, _ in keyed}) == shapes


# --- exports -----------------------------------------------------------------


def test_dot_export_golden(u2):
    report = poset(u2)
    assert poset_to_dot(u2, report) == (
        "digraph minors {\n"
        '  "+";\n'
        '  "-";\n'
        '  "+(+)";\n'
        '  "+(-)";\n'
        '  "-(+)";\n'
        '  "-(-)";\n'
        '  "+" -> "+(+)";\n'
        '  "+" -> "+(-)";\n'
        '  "+" -> "-(+)";\n'
        '  "-" -> "+(-)";\n'
        '  "-" -> "-(+)";\n'
        '  "-" -> "-(-)";\n'
        "}\n"
    )


def test_csv_export_golden(u2):
    report = poset(u2)
    assert poset_to_csv(report) == "i,j\n0,2\n0,3\n0,4\n1,3\n1,4\n1,5\n"
