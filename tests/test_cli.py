import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfarb import cli, minors
from hopfarb.cli import run
from hopfarb.invariants import genus
from hopfarb.trees import count, random_tree


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_parse_prints_canonical(capsys):
    assert run(["parse", "--tree", " + ( + , - ) "]) == 0
    out, _ = out_of(capsys)
    assert out == "+(+,-)\n"


def test_parse_json(capsys):
    assert run(["parse", "--tree", "-(+)", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    assert json.loads(out) == {
        "label": "-",
        "children": [{"label": "+", "children": []}],
    }


def test_parse_file_input(tmp_path, capsys):
    f = tmp_path / "trees.txt"
    f.write_text("+\n-(+)\n\n+(+,-)\n", encoding="utf-8")
    assert run(["parse", "--file", str(f)]) == 0
    out, _ = out_of(capsys)
    assert out == "+\n-(+)\n+(+,-)\n"


def test_bad_tree_is_domain_error(capsys):
    assert run(["parse", "--tree", "+("]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: syntax error at offset 2")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["inv", "--file", "{tmp}/missing.txt"],
        ["inv", "--file", "{tmp}"],  # a directory
        ["poset", "--max-size", "2", "--dot", "{tmp}/missing/h.dot"],
    ],
)
def test_os_error_is_domain_error(tmp_path, capsys, argv):
    assert run([a.format(tmp=tmp_path) for a in argv]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_usage_errors_exit_2(capsys):
    assert run(["parse"]) == 2  # missing input
    assert run(["frobnicate"]) == 2  # unknown verb
    assert run(["count", "4", "--nope"]) == 2  # unknown flag
    capsys.readouterr()


def test_count(capsys):
    assert run(["count", "4"]) == 0
    out, _ = out_of(capsys)
    assert out == "80\n"


def test_count_beyond_the_int_to_str_digit_limit(capsys):
    assert run(["count", "5000"]) == 0
    out, _ = out_of(capsys)
    assert len(out.rstrip()) == 4510
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{count(5000)}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_domain_error(capsys):
    assert run(["count", "0"]) == 1
    _, err = out_of(capsys)
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "99999999999999999999999"],
        ["enum", "--size", str(10**20), "--limit", "1"],
        ["random", "--size", str(10**20), "--seed", "1"],
        ["classes", "--size", str(10**20)],
    ],
)
def test_size_beyond_comb_is_domain_error(capsys, argv):
    # math.comb would overflow for n - 1 > sys.maxsize; the size guard stops it first.
    assert run(argv) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("size", [10**6, 10**18])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "{}"],
        ["enum", "--size", "{}", "--limit", "1"],
        ["random", "--size", "{}", "--seed", "1"],
        ["classes", "--size", "{}"],
    ],
    ids=["count", "enum", "random", "classes"],
)
def test_size_guard_fails_fast(capsys, monkeypatch, argv, size):
    # Counting alone costs about n^2 (``count 1000000`` did not finish in
    # 20 s), so the guard comes before any count, enumeration or unranking.
    def no_work(*args):
        raise AssertionError("counted trees before checking the size guard")

    for name in ("count", "enumerate_trees", "random_tree"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(minors, "fingerprint_classes", no_work)
    start = time.perf_counter()
    assert run([a.format(size) for a in argv]) == 1
    assert time.perf_counter() - start < 5
    out, err = out_of(capsys)
    assert out == ""
    assert err == f"error: size guard exceeded: tree size {size} > guard {cli.SIZE_GUARD}\n"


def test_size_guard_admits_its_bound(capsys):
    assert run(["count", str(cli.SIZE_GUARD)]) == 0
    out, err = out_of(capsys)
    assert len(out.rstrip()) == 90301 and err == ""
    assert run(["count", str(cli.SIZE_GUARD + 1)]) == 1


def test_enum_with_limit(capsys):
    assert run(["enum", "--size", "2"]) == 0
    out, _ = out_of(capsys)
    assert out == "+(+)\n+(-)\n-(+)\n-(-)\n"
    assert run(["enum", "--size", "2", "--limit", "2"]) == 0
    out, _ = out_of(capsys)
    assert out == "+(+)\n+(-)\n"


def test_enum_first_tree_of_size_2000(capsys):
    assert run(["enum", "--size", "2000", "--limit", "1"]) == 0
    out, err = out_of(capsys)
    assert out == "+(" * 1999 + "+" + ")" * 1999 + "\n"
    assert err == ""


def test_negative_limit_is_usage_error(capsys):
    for text in ("-1", "x", "1.5", ""):
        assert run(["enum", "--size", "3", "--limit", text]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert f"--limit: expected a non-negative integer, got {text!r}" in err


def test_parse_deep_tree_file(tmp_path, capsys):
    text = "+(" * 1200 + "+" + ")" * 1200
    f = tmp_path / "deep.txt"
    f.write_text(text + "\n", encoding="utf-8")
    assert run(["parse", "--file", str(f)]) == 0
    out, _ = out_of(capsys)
    assert out == text + "\n"
    # Deeper than json.dumps of the nested dicts can go; the text writer has no limit.
    assert run(["parse", "--file", str(f), "--format", "json"]) == 0
    out, err = out_of(capsys)
    assert out == '{"label":"+","children":[' * 1201 + "]}" * 1201 + "\n"
    assert err == ""


def test_inv_json_matches_schema(capsys):
    assert run(["inv", "--tree", "+(+)", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    obj = json.loads(out)
    assert obj["g"] == 1 and obj["sigma"] == 2 and obj["det"] == "3"
    assert obj["alexander"] == {"lowest": 0, "coeffs": [1, -1, 1]}


def test_inv_text(capsys):
    assert run(["inv", "--tree", "+(-)"]) == 0
    out, _ = out_of(capsys)
    assert out == "n=2 b=1 g=1 sigma=0 det=5 nullity=0 alexander=t^2 - 3*t + 1\n"


def test_embed_with_witness(capsys):
    assert run(["embed", "--sub", "+(+)", "--super", "+(-(+))", "--witness"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert lines[0] == "true"
    assert json.loads(lines[1]) == {
        "vertex_map": [[0, 0], [1, 2]],
        "edge_paths": [[0, 1, 2]],
    }
    assert run(["embed", "--sub", "-", "--super", "+(+)"]) == 0
    out, _ = out_of(capsys)
    assert out == "false\n"


def test_oracle_embed_and_guard(capsys):
    assert run(["oracle-embed", "--sub", "+(+)", "--super", "+(-(+))"]) == 0
    out, _ = out_of(capsys)
    assert out == "true\n"
    nine = "+(+(+(+(+(+(+(+(+))))))))"
    assert run(["oracle-embed", "--sub", "+", "--super", nine]) == 1
    _, err = out_of(capsys)
    assert "guard" in err
    assert run(["oracle-embed", "--sub", "+", "--super", nine, "--guard", "9"]) == 0
    out, err = out_of(capsys)
    assert out == "true\n"
    assert "guard override: 9" in err


def test_poset_stats_and_files(tmp_path, capsys):
    assert run(["poset", "--max-size", "2"]) == 0
    out, _ = out_of(capsys)
    stats = json.loads(out)
    assert stats["trees"] == 6 and stats["relation_pairs"] == 6

    dot = tmp_path / "p.dot"
    csv = tmp_path / "p.csv"
    assert run(["poset", "--max-size", "2", "--dot", str(dot), "--csv", str(csv)]) == 0
    assert csv.read_bytes() == b"i,j\n0,2\n0,3\n0,4\n1,3\n1,4\n1,5\n"
    assert dot.read_text(encoding="utf-8").startswith("digraph minors {")
    assert b"\r" not in dot.read_bytes()


def test_poset_size_6_output_is_pinned(capsys):
    # The benchmark's goldens stop at size 5; this pins the next size.
    assert run(["poset", "--max-size", "6", "--dot", "-", "--csv", "-"]) == 0
    data = out_of(capsys)[0].encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        917506,
        "a4b3e036ac173a2c554f8755c0acdfec22abd6e2559796981a4fbdfc51c948d4",
    )
    assert run(["poset", "--max-size", "6"]) == 0
    data = out_of(capsys)[0].encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == (
        "7bd2f5a041a55d191ec937fa7cc4019cf84d1149065fbfcdbac986fb96b312a0"
    )
    stats = json.loads(data)
    assert (stats["relation_pairs"], stats["hasse_pairs"]) == (58428, 11234)


def test_poset_guard_error(capsys):
    assert run(["poset", "--max-size", "7"]) == 1
    _, err = out_of(capsys)
    assert "guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "--max-size", "8"],
        ["audit", "--quantity", "genus", "--max-size", "8"],
        ["mine", "--predicate", "all_positive", "--max-size", "8"],
    ],
)
def test_guard_checked_before_enumeration(capsys, monkeypatch, argv):
    def no_enumeration(n):
        raise AssertionError("enumerated trees before checking the guard")

    monkeypatch.setattr(minors, "enumerate_trees", no_enumeration)
    assert run(argv) == 1
    _, err = out_of(capsys)
    assert err == "error: poset guard exceeded: universe bound 8 > guard 6\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "--max-size", "6"],
        ["audit", "--quantity", "genus", "--max-size", "6"],
        ["mine", "--predicate", "all_positive", "--max-size", "6"],
    ],
)
def test_lowered_guard_is_logged_then_enforced(capsys, argv):
    assert run([*argv, "--guard", "5"]) == 1
    assert out_of(capsys) == (
        "",
        "guard override: 5\nerror: poset guard exceeded: universe bound 6 > guard 5\n",
    )


def test_raised_guard_lets_mine_run(capsys):
    assert run(["mine", "--predicate", "all_positive", "--max-size", "7", "--guard", "7"]) == 0
    assert out_of(capsys) == ("-\n", "guard override: 7\n")


def test_guard_override_is_logged_before_a_predicate_error(capsys):
    assert run(["mine", "--predicate", "nope", "--max-size", "8", "--guard", "9"]) == 1
    assert out_of(capsys) == ("", "guard override: 9\nerror: unknown predicate 'nope'\n")


def test_mine(capsys):
    assert run(["mine", "--predicate", "all_positive", "--max-size", "4"]) == 0
    out, _ = out_of(capsys)
    assert out == "-\n"
    assert run(["mine", "--predicate", "nope", "--max-size", "3"]) == 1


@pytest.mark.parametrize(
    "spec, lines, size, digest",
    [
        ("size_le:3", 80, 800, "0d5e1ea49bce560e7e467a87bae1689bb37994372cd27b4ec1417b1e17b496fb"),
        ("genus_le:1", 48, 496, "1c7d8de7a1da87b3bfad97f3bcc975dda91dbefc4b11a60131499117b98d3e41"),
        ("all_positive", 1, 2, "61d1954b9aba0c9aedb8d1338804e817c7262cfc36da94161dab8e3ed7a3a43a"),
        ("sig_abs_le:1", 4, 28, "7c10bd50a1e4f5dfb83346cdc7ec077c5dd91af24f179afdbc2102936a7feb29"),
        ("det_le:3", 6, 40, "9621d3e98c708c122f859895ba940d74c5ab6394d3db6bfda920952df0736c9d"),
        ("top_defect_ub_le:1", 18, 186, "5d0651901b01a5831f05753e76fa6c38c1e94e21879ae7f0ecccf0ac5f2e3f67"),
    ],
)
def test_mine_size_6_output_is_pinned(capsys, spec, lines, size, digest):
    assert run(["mine", "--predicate", spec, "--max-size", "6"]) == 0
    data = out_of(capsys)[0].encode("utf-8")
    assert (data.count(b"\n"), len(data), hashlib.sha256(data).hexdigest()) == (lines, size, digest)


def test_audit(capsys):
    assert run(["audit", "--quantity", "genus", "--max-size", "3"]) == 0
    out, _ = out_of(capsys)
    assert out == "violations: 0\n"


def test_audit_reports_violations(monkeypatch, capsys):
    # Both registered quantities are monotone, so a decreasing stand-in
    # is what reaches the violation path, in the library and in the CLI.
    monkeypatch.setitem(minors._QUANTITIES, "genus", lambda t: -genus(t))
    u = minors.universe(3)
    rel = minors.poset(u).relation_pairs
    expected = [(i, j) for i, j in rel if genus(u.trees[i]) < genus(u.trees[j])]
    assert 0 < len(expected) < len(rel)
    assert minors.audit_monotone("genus", 3) == expected
    # The universe is built once, by the library's fallback scan; the CLI
    # finds the failing trees by their universe indices.
    built = []
    universe = minors.universe
    monkeypatch.setattr(minors, "universe", lambda n: built.append(n) or universe(n))
    assert run(["audit", "--quantity", "genus", "--max-size", "3"]) == 0
    assert built == [3]
    out, _ = out_of(capsys)
    lines = [f"{u.trees[i].text}\t{u.trees[j].text}" for i, j in expected]
    assert out == "\n".join(lines) + f"\nviolations: {len(expected)}\n"


@pytest.mark.parametrize("spec", ["genus_le:x", "sig_abs_le:1.5"])
def test_mine_rejects_a_non_integer_parameter(capsys, spec):
    assert run(["mine", "--predicate", spec, "--max-size", "3"]) == 1
    out, err = out_of(capsys)
    name, _, arg = spec.partition(":")
    assert out == ""
    assert err == f"error: predicate {name!r} needs an integer parameter, got {arg!r}\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("all_positive:", "predicate 'all_positive' takes no parameter"),
        ("genus_le:", "predicate 'genus_le' requires a parameter, e.g. genus_le:2"),
    ],
)
def test_mine_rejects_a_bare_separator(capsys, spec, message):
    assert run(["mine", "--predicate", spec, "--max-size", "3"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err == f"error: {message}\n"


def test_classes(capsys):
    assert run(["classes", "--size", "2"]) == 0
    out, _ = out_of(capsys)
    assert out == "+(+)\n+(-) -(+)\n-(-)\n"


@pytest.mark.parametrize("size", ["0", "-3"])
def test_classes_rejects_a_size_below_one(capsys, size):
    assert run(["classes", "--size", size]) == 1
    assert out_of(capsys) == ("", "error: tree size must be >= 1\n")


@pytest.mark.parametrize("size", [11, 1000])
def test_classes_guard_fails_fast(capsys, monkeypatch, size):
    # Size 9 takes seconds and 89 MiB as a CLI run; size 10 holds 5.0M trees.
    def no_work(n):
        raise AssertionError("classified trees before checking the guard")

    monkeypatch.setattr(minors, "fingerprint_classes", no_work)
    start = time.perf_counter()
    assert run(["classes", "--size", str(size)]) == 1
    assert time.perf_counter() - start < 5
    guard = cli.CLASSES_GUARD
    assert out_of(capsys) == ("", f"error: classes guard exceeded: tree size {size} > guard {guard}\n")


def test_classes_size_7_output_is_pinned(capsys):
    # The benchmark's golden stops at size 6; this pins the next size.
    assert run(["classes", "--size", "7"]) == 0
    data = out_of(capsys)[0].encode("utf-8")
    assert (data.count(b"\n"), len(data), hashlib.sha256(data).hexdigest()) == (
        490,
        295680,
        "b9026376b564f00ad32185747aaa5e020eb89acc4db6ddb76238649e4e88b6fc",
    )


BENCHMARK_GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8")
)["stdout"]


@pytest.mark.parametrize("verb", sorted(BENCHMARK_GOLDEN))
def test_sweep_matches_benchmark_golden(verb, capsys):
    want = BENCHMARK_GOLDEN[verb]
    assert run(verb.split()) == 0
    out, _ = out_of(capsys)
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (want["bytes"], want["sha256"])


def test_random_deterministic(capsys):
    assert run(["random", "--size", "5", "--seed", "11"]) == 0
    first, _ = out_of(capsys)
    assert run(["random", "--size", "5", "--seed", "11"]) == 0
    second, _ = out_of(capsys)
    assert first == second
    assert len(first.strip()) > 0


def test_jobs_do_not_change_output(capsys):
    assert run(["--jobs", "1", "poset", "--max-size", "3", "--csv", "-"]) == 0
    one, _ = out_of(capsys)
    assert run(["--jobs", "2", "poset", "--max-size", "3", "--csv", "-"]) == 0
    two, _ = out_of(capsys)
    assert one == two
    assert one.startswith("i,j\n")


def test_runs_in_one_process_match_fresh_processes():
    # The parser is built on the first run, not at import, and then kept:
    # after a usage error and a domain error, each run still prints what
    # a fresh process prints.
    code = "import hopfarb.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"
    cli._parser.cache_clear()
    usage, domain = ["mine", "--max-size", "3"], ["parse", "--tree", "+("]
    argvs = [usage, domain, *map(str.split, BENCHMARK_GOLDEN)]
    codes = []
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "hopfarb", *argv], capture_output=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(run(argv))
        got = (codes[-1], out.getvalue().encode(), err.getvalue().encode())
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [2, 1] + [0] * len(BENCHMARK_GOLDEN)
    assert cli._parser.cache_info().misses == 1


def test_import_starts_no_process_pool():
    code = "import sys, hopfarb; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


# --- exit contract: 0, 1 or 2 on every input, never a traceback ---------------


def _run_captured(argv):
    # An exception escaping ``run`` is what ``main`` would print as a traceback.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


# Short texts (about 40 characters, so at most about 20 vertices) because
# Delta is still a dense computation.  Valid trees are drawn separately, as
# arbitrary text is almost never one.
tree_texts = st.text(st.sampled_from("+-(), ") | st.characters(), max_size=40) | st.builds(
    lambda n, seed: random_tree(n, seed).text, st.integers(1, 12), st.integers(0, 2**32)
)


@settings(deadline=None)
@given(tree_texts, st.sampled_from(("text", "json")))
def test_parse_and_inv_exit_contract(text, fmt):
    for verb in ("parse", "inv"):
        _run_captured([verb, "--tree", text, "--format", fmt])


@settings(deadline=None)
@given(tree_texts, tree_texts, st.booleans())
def test_embed_exit_contract(sub, sup, witness):
    _run_captured(["embed", "--sub", sub, "--super", sup] + ["--witness"] * witness)


# Sizes up to 10**4 keep each run under about a second; sizes above
# cli.SIZE_GUARD are refused before any tree is counted.
sizes = st.integers(-(10**30), 0) | st.integers(1, 10**4) | st.integers(cli.SIZE_GUARD + 1, 10**30)


@settings(deadline=None, max_examples=40)
@given(sizes, st.integers(-(10**30), 10**30))
def test_numeric_options_exit_contract(size, seed):
    _run_captured(["count", str(size)])
    _run_captured(["enum", "--size", str(size), "--limit", "1"])
    _run_captured(["random", "--size", str(size), "--seed", str(seed)])
