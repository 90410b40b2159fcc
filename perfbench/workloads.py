"""The benchmark workloads: inputs, operations, output checks and metrics.

Every workload runs in one process as a closed loop with one caller: an
operation starts only after the previous one returned.  A run is a
sequence of passes; each pass is a fixed list of operations, and passes
of the seeded workloads draw fresh inputs from (seed, pass number).
Fresh draws still repeat small trees: there are only a few hundred
unrooted signed trees of 6 or 7 vertices, so ``RepeatCounter`` reports
how often inputs repeat within a pass and over the whole run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gen
import hostspeed
import spans

HERE = Path(__file__).resolve().parent

# Fixed size mixes keep one pass's work, and the op sitting at each
# reported percentile, the same from pass to pass and seed to seed.
FINGERPRINT_SIZES = [n for n in range(6, 13) for _ in range(29)] + [24, 28, 32, 32, 32, 32, 40]
LARGE_FINGERPRINT = 13  # trees at least this big count towards invariants.fingerprint.large_s

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

PER_LAYER = {
    "trees.enumerate_trees.s": "s",
    "trees.enumerate_trees.trees": "count",
    "trees.parse.s": "s",
    "trees.parse.calls": "count",
    "trees.parse.vertices_per_s": "1/s",
    "embedding.embeds.s": "s",
    "embedding.embeds.calls": "count",
    "embedding.embeds.hit_ratio": "ratio",
    "embedding.embeds.cells": "count",
    "embedding.embeds.cells_per_s": "1/s",
    "invariants.fingerprint.s": "s",
    "invariants.fingerprint.calls": "count",
    "invariants.fingerprint.small_s": "s",
    "invariants.fingerprint.large_s": "s",
    "invariants.seifert_matrix.s": "s",
    "invariants.genus.s": "s",
    "invariants.alexander.s": "s",
    "invariants.signature.s": "s",
    "invariants.repeat_share": "ratio",
    "invariants.repeat_share_run": "ratio",
    "minors.universe.s": "s",
    "minors.poset.s": "s",
    "minors.poset.candidate_pairs": "count",
    "minors.poset.relation_pairs": "count",
    "minors.poset.hasse_pairs": "count",
    "minors.poset.hit_ratio": "ratio",
    "minors.poset_to_dot.s": "s",
    "minors.poset_to_csv.s": "s",
    "minors.audit_monotone.s": "s",
    "minors.minimal_excluded.s": "s",
    "minors.minimal_excluded.minimal": "count",
    "minors.fingerprint_classes.s": "s",
    "minors.fingerprint_classes.classes": "count",
    "cli.run.poset.s": "s",
    "cli.run.audit.s": "s",
    "cli.run.mine.s": "s",
    "cli.run.classes.s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class PassRecord:
    """What one pass measured.  Times are in seconds."""

    ops: list[float] = field(default_factory=list)  # latency of each timed op
    kinds: dict[str, list[float]] = field(default_factory=dict)
    kernel: list[float] = field(default_factory=list)  # hostspeed.kernel times taken during the pass
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # Captured stdout per verb, kept only when asked for (traced runs), so
    # that memory does not grow with the number of passes.
    keep_stdout: bool = False
    stdout: dict[str, str] = field(default_factory=dict)

    def add(self, kind: str, seconds: float) -> None:
        self.kinds.setdefault(kind, []).append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def scale(self) -> float:
        """Factor from this pass's raw times to times on the reference host."""
        return hostspeed.scale(self.kernel)


def plain_api():
    """The public hopfarb functions the workloads call, untraced."""
    from hopfarb import cli, invariants, trees

    return SimpleNamespace(
        parse=trees.parse,
        fingerprint=invariants.fingerprint,
        seifert_matrix=invariants.seifert_matrix,
        genus=invariants.genus,
        alexander=invariants.alexander,
        signature=invariants.signature,
        cli_run=cli.run,
        begin_op=lambda: None,
        clock=perf_counter,
    )


def _candidate_pairs(u) -> int:
    """Pairs (i, j) of the universe with size(j) > size(i): the pairs poset tests."""
    by_size: dict[int, int] = {}
    for t in u.trees:
        by_size[t.size] = by_size.get(t.size, 0) + 1
    larger, pairs = 0, 0
    for s in sorted(by_size, reverse=True):
        pairs += by_size[s] * larger
        larger += by_size[s]
    return pairs


def _verb(argv) -> str:
    return next(a for a in argv if not a.startswith("-") and not a.isdigit())


def traced_api(tracer: spans.Tracer):
    """Traced twins of :func:`plain_api`, plus the module attributes to patch.

    The patches put spans on the calls hopfarb makes between its own
    modules (cli into minors, minors into trees, embedding and
    invariants), which the benchmark cannot wrap from outside.
    """
    from hopfarb import minors

    api = plain_api()
    w = tracer.wrap
    enumerate_trees = minors.enumerate_trees
    traced = SimpleNamespace(
        parse=w("trees.parse", api.parse, lambda a, r: r.size),
        fingerprint=w("invariants.fingerprint", api.fingerprint, lambda a, r: a[0].size),
        seifert_matrix=w("invariants.seifert_matrix", api.seifert_matrix),
        genus=w("invariants.genus", api.genus),
        alexander=w("invariants.alexander", api.alexander),
        signature=w("invariants.signature", api.signature),
        cli_run=w("cli.run", api.cli_run, lambda a, r: _verb(a[0])),
        begin_op=tracer.begin_op,
        clock=api.clock,
    )
    # enumerate_trees is a generator; the span covers producing every tree.
    enumerate_list = w(
        "trees.enumerate_trees",
        lambda n: list(enumerate_trees(n)),
        lambda a, r: len(r),
    )
    patches = [
        (minors, "enumerate_trees", lambda n: iter(enumerate_list(n))),
        (minors, "embeds", w("embedding.embeds", minors.embeds, lambda a, r: (a[0].size * a[1].size, r))),
        (minors, "fingerprint", w("invariants.fingerprint", minors.fingerprint, lambda a, r: a[0].size)),
        (minors, "universe", w("minors.universe", minors.universe)),
        (
            minors,
            "poset",
            w(
                "minors.poset",
                minors.poset,
                lambda a, r: (_candidate_pairs(a[0]), len(r.relation_pairs), len(r.hasse_pairs)),
            ),
        ),
        (minors, "poset_to_dot", w("minors.poset_to_dot", minors.poset_to_dot)),
        (minors, "poset_to_csv", w("minors.poset_to_csv", minors.poset_to_csv)),
        (minors, "audit_monotone", w("minors.audit_monotone", minors.audit_monotone)),
        (minors, "minimal_excluded", w("minors.minimal_excluded", minors.minimal_excluded, lambda a, r: len(r))),
        (
            minors,
            "fingerprint_classes",
            w("minors.fingerprint_classes", minors.fingerprint_classes, lambda a, r: len(r)),
        ),
    ]
    return traced, patches


def layer_metrics(tracer: spans.Tracer, lo: int, hi: int, rec: PassRecord, repeat_share: float):
    """Every per-layer metric of one traced pass (spans ``lo..hi-1``)."""
    tot = spans.totals(tracer, lo, hi)
    empty = spans.Total()

    def get(name):
        return tot.get(name, empty)

    def rate(num, den):
        return num / den if den else 0.0

    parse, embeds, fp, poset = get("trees.parse"), get("embedding.embeds"), get("invariants.fingerprint"), get("minors.poset")
    vertices = sum(i for _, i in parse.spans)
    cells = sum(i[0] for _, i in embeds.spans)
    candidate = sum(i[0] for _, i in poset.spans)
    relation = sum(i[1] for _, i in poset.spans)
    by_verb: dict[str, float] = {}
    for d, verb in get("cli.run").spans:
        by_verb[verb] = by_verb.get(verb, 0.0) + d
    m = {
        "trees.enumerate_trees.s": get("trees.enumerate_trees").s,
        "trees.enumerate_trees.trees": sum(i for _, i in get("trees.enumerate_trees").spans),
        "trees.parse.s": parse.s,
        "trees.parse.calls": parse.calls,
        "trees.parse.vertices_per_s": rate(vertices, parse.s),
        "embedding.embeds.s": embeds.s,
        "embedding.embeds.calls": embeds.calls,
        "embedding.embeds.hit_ratio": rate(sum(1 for _, i in embeds.spans if i[1]), embeds.calls),
        "embedding.embeds.cells": cells,
        "embedding.embeds.cells_per_s": rate(cells, embeds.s),
        "invariants.fingerprint.s": fp.s,
        "invariants.fingerprint.calls": fp.calls,
        "invariants.fingerprint.small_s": sum(d for d, n in fp.spans if n < LARGE_FINGERPRINT),
        "invariants.fingerprint.large_s": sum(d for d, n in fp.spans if n >= LARGE_FINGERPRINT),
        "invariants.seifert_matrix.s": get("invariants.seifert_matrix").s,
        "invariants.genus.s": get("invariants.genus").s,
        "invariants.alexander.s": get("invariants.alexander").s,
        "invariants.signature.s": get("invariants.signature").s,
        "invariants.repeat_share": repeat_share,
        "minors.universe.s": get("minors.universe").s,
        "minors.poset.s": poset.s,
        "minors.poset.candidate_pairs": candidate,
        "minors.poset.relation_pairs": relation,
        "minors.poset.hasse_pairs": sum(i[2] for _, i in poset.spans),
        "minors.poset.hit_ratio": rate(relation, candidate),
        "minors.poset_to_dot.s": get("minors.poset_to_dot").s,
        "minors.poset_to_csv.s": get("minors.poset_to_csv").s,
        "minors.audit_monotone.s": get("minors.audit_monotone").s,
        "minors.minimal_excluded.s": get("minors.minimal_excluded").s,
        "minors.minimal_excluded.minimal": sum(i for _, i in get("minors.minimal_excluded").spans),
        "minors.fingerprint_classes.s": get("minors.fingerprint_classes").s,
        "minors.fingerprint_classes.classes": sum(i for _, i in get("minors.fingerprint_classes").spans),
        "cli.self_s": get("cli.run").self_s,
        "cli.stdout_bytes": sum(len(out.encode("utf-8")) for out in rec.stdout.values()),
    }
    for verb in ("poset", "audit", "mine", "classes"):
        m[f"cli.run.{verb}.s"] = by_verb.get(verb, 0.0)
    return m


class RepeatCounter:
    """How often fingerprinted trees repeat an earlier unrooted signed form.

    ``add_pass`` returns the share of repeats within that pass;
    ``run_share`` is the share over every pass counted so far, which is
    what a process-wide memo of invariants could hit.
    """

    def __init__(self) -> None:
        self.seen: set[str] = set()
        self.repeats = 0
        self.total = 0

    def add_pass(self, trees: list[gen.Tree]) -> float:
        in_pass: set[str] = set()
        within = 0
        for t in trees:
            form = gen.unrooted_form(t)
            within += form in in_pass
            self.repeats += form in self.seen
            in_pass.add(form)
            self.seen.add(form)
        self.total += len(trees)
        return within / len(trees) if trees else 0.0

    @property
    def run_share(self) -> float:
        return self.repeats / self.total if self.total else 0.0


class OrderSweep:
    """CLI sweeps over the minor order; exhaustive, so the seed is unused.

    Failures are counted per verb, but the timed op is the whole sweep of
    six verbs: the verbs differ up to fifty-fold in cost, so a percentile
    over single verbs would sit on the boundary between two of them.
    """

    name = "order_sweep"
    aliases: dict[str, str] = {}
    VERBS = [
        "poset --max-size 5 --dot - --csv -",
        "audit --quantity genus --max-size 5",
        "audit --quantity betti --max-size 5",
        "mine --predicate genus_le:1 --max-size 6",
        "mine --predicate all_positive --max-size 6",
        "classes --size 6",
    ]
    warmup = """
import contextlib, io
from hopfarb import cli
with contextlib.redirect_stdout(io.StringIO()):
    for verb in ("poset --max-size 3 --dot - --csv -", "audit --quantity genus --max-size 3",
                 "mine --predicate genus_le:1 --max-size 3", "classes --size 3"):
        cli.run(["--jobs", "1", *verb.split()])
"""

    def __init__(self, seed: int):
        self.golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["stdout"]

    def inputs(self, pass_no: int) -> list[str]:
        return list(self.VERBS)

    def run_pass(self, api, inputs: list[str], rec: PassRecord) -> None:
        sweep = 0.0
        for verb in inputs:
            api.begin_op()
            rec.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            try:
                t0 = api.clock()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = api.cli_run(["--jobs", "1", *verb.split()])
                dt = api.clock() - t0
            except Exception as exc:  # a crashing op is a failed op; the run goes on
                rec.fail(f"{verb}: {exc!r}")
                continue
            sweep += dt
            rec.add(verb.split()[0], dt)
            text = out.getvalue()
            if rec.keep_stdout:
                rec.stdout[verb] = text
            data = text.encode("utf-8")
            want = self.golden[verb]
            if code != 0 or err.getvalue():
                rec.fail(f"{verb}: exit {code}, stderr {err.getvalue()[:200]!r}")
            elif len(data) != want["bytes"] or hashlib.sha256(data).hexdigest() != want["sha256"]:
                rec.fail(f"{verb}: stdout differs from the seed output")
        rec.ops.append(sweep)

    def fingerprinted(self, inputs, rec: PassRecord) -> list[gen.Tree]:
        """The trees ``classes`` fingerprinted, read from its kept stdout."""
        return [gen.from_text(t) for t in rec.stdout.get("classes --size 6", "").split()]

    def summary(self, records: list[PassRecord]) -> list[tuple[str, float, str]]:
        def per_pass(kind):
            return statistics.median(sum(r.kinds.get(kind, [])) * r.scale() for r in records)

        return [(f"{k}_s", per_pass(k), "s (median per pass, reference host)") for k in ("poset", "audit", "mine", "classes")]


class FingerprintBatch:
    """parse -> fingerprint -> JSON on distinct random trees."""

    name = "fingerprint_batch"
    aliases = {"ops_per_s": "fingerprints_per_s", "op_p50_ms": "fingerprint_p50_ms", "op_tail_ms": "fingerprint_tail_ms"}
    warmup = """
import json
from hopfarb import fingerprint, parse
for text in ("+", "-(+,-)", "+(-(+),+(-,+))"):
    json.dumps(fingerprint(parse(text)).to_json_obj(), separators=(",", ":"))
"""

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, pass_no: int) -> list[tuple[gen.Tree, str]]:
        rng = gen.rng_for(self.seed, pass_no)
        sizes = list(FINGERPRINT_SIZES)
        rng.shuffle(sizes)
        trees = [gen.random_tree(rng, n) for n in sizes]
        return [(t, t.text()) for t in trees]

    def run_pass(self, api, inputs, rec: PassRecord) -> None:
        for tree, text in inputs:
            api.begin_op()
            rec.attempted += 1
            try:
                t0 = api.clock()
                t = api.parse(text)
                out = json.dumps(api.fingerprint(t).to_json_obj(), separators=(",", ":"))
                dt = api.clock() - t0
                problem = check_fingerprint(tree, out)
            except Exception as exc:  # a crashing op is a failed op; the run goes on
                rec.fail(f"{text}: {exc!r}")
                continue
            rec.ops.append(dt)
            if problem:
                rec.fail(f"{text}: {problem}")

    def split_invariants(self, api, inputs) -> None:
        """One public call of each invariant per tree, for the traced split.

        Trees are parsed untraced here, so parse metrics count the timed ops only.
        """
        parse = plain_api().parse
        for _, text in inputs:
            api.begin_op()
            t = parse(text)
            api.seifert_matrix(t)
            api.genus(t)
            api.alexander(t)
            api.signature(t)

    def fingerprinted(self, inputs, rec: PassRecord) -> list[gen.Tree]:
        return [t for t, _ in inputs]

    def summary(self, records):
        return []


def check_fingerprint(tree: gen.Tree, out: str) -> str | None:
    """Why fingerprint JSON ``out`` is wrong for ``tree``, or None when it checks.

    Genus equals the matching number (rank of the tree-supported skew
    form), b = n + 1 - 2g, and a knot has Alexander polynomial with
    Delta(1) = +-1.
    """
    obj = json.loads(out)
    n, b, g = obj["n"], obj["b"], obj["g"]
    if n != tree.size:
        return f"n={n}, tree has {tree.size} vertices"
    if g != gen.matching_number(tree):
        return f"g={g}, matching number is {gen.matching_number(tree)}"
    if b != n + 1 - 2 * g:
        return f"b={b} breaks b = n + 1 - 2g"
    if b == 1 and abs(sum(obj["alexander"]["coeffs"])) != 1:
        return "knot with Delta(1) != +-1"
    return None


WORKLOADS = {w.name: w for w in (OrderSweep, FingerprintBatch)}


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest of p99, p90, p50 with at least ten samples beyond it (nearest rank).

    Falls back to p50 when fewer than twenty samples exist.
    """
    s = sorted(samples)
    n = len(s)
    for p in (99, 90):
        k = -(-p * n // 100)  # ceil(p * n / 100), 1-based rank
        if n - k >= 10:
            return f"p{p}", s[k - 1]
    return "p50", statistics.median(s)
