"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHEAP_VERB = "mine --predicate all_positive --max-size 6"


def _run_ops(wl, api, inputs):
    rec = workloads.PassRecord()
    wl.run_pass(api, inputs, rec)
    return rec


def test_same_seed_same_inputs():
    def texts(seed):
        return [[text for _, text in workloads.FingerprintBatch(seed).inputs(p)] for p in range(3)]

    first = texts(7)
    assert first == texts(7)
    assert first != texts(8)
    assert first[0] != first[1]  # passes draw fresh inputs
    assert sorted(len(gen.from_text(t).parents) for t in first[0]) == sorted(workloads.FINGERPRINT_SIZES)


def test_generated_trees_round_trip():
    from hopfarb import genus, parse

    rng = gen.rng_for(3, 0)
    for _ in range(50):
        t = gen.random_tree(rng, rng.randint(1, 30))
        assert parse(t.text()).text == t.text()
        assert gen.from_text(t.text()) == t
        assert genus(parse(t.text())) == gen.matching_number(t)


def test_clean_ops_pass_checks():
    api = workloads.plain_api()
    fb = workloads.FingerprintBatch(1)
    assert _run_ops(fb, api, fb.inputs(0)[:30]).failed == 0
    rec = _run_ops(workloads.OrderSweep(1), api, [CHEAP_VERB])
    assert rec.failed == 0
    assert rec.stdout == {}  # untraced passes keep no output, so memory does not grow with passes


def test_repeat_counter_counts_within_pass_and_over_run():
    # Same unrooted form: a re-rooted path, and the same tree in another plane order.
    path_a, path_b = gen.from_text("+(-(+))"), gen.from_text("-(+,+)")
    other = gen.from_text("+(+(+))")
    counter = workloads.RepeatCounter()
    assert counter.add_pass([path_a, other]) == 0.0
    assert counter.add_pass([path_b, path_b]) == 0.5
    assert counter.run_share == 0.5


def test_flipped_embed_result_is_a_failure():
    from hopfarb import minors

    embeds = minors.embeds
    with spans.patched([(minors, "embeds", lambda a, b: not embeds(a, b))]):
        rec = _run_ops(workloads.OrderSweep(1), workloads.plain_api(), [CHEAP_VERB])
    assert rec.failed == rec.attempted == 1


def test_wrong_genus_is_a_failure():
    api = workloads.plain_api()

    class OffByOne:
        def __init__(self, fp):
            self.fp = fp

        def to_json_obj(self):
            obj = self.fp.to_json_obj()
            obj["g"] += 1
            return obj

    wrong = SimpleNamespace(**{**vars(api), "fingerprint": lambda t: OffByOne(api.fingerprint(t))})
    fb = workloads.FingerprintBatch(1)
    rec = _run_ops(fb, wrong, fb.inputs(0)[:20])
    assert rec.failed == rec.attempted == 20


def test_changed_cli_output_is_a_failure():
    api = workloads.plain_api()

    def noisy_run(argv):
        code = api.cli_run(argv)
        print()
        return code

    wrong = SimpleNamespace(**{**vars(api), "cli_run": noisy_run})
    rec = _run_ops(workloads.OrderSweep(1), wrong, [CHEAP_VERB])
    assert rec.failed == rec.attempted == 1


def test_host_speed_samples_during_a_block_and_clock_leaves_them_out():
    speed = hostspeed.HostSpeed()
    samples: list[float] = []
    with speed.sampling(samples):
        t0, c0 = perf_counter(), speed.clock()
        while perf_counter() - t0 < 3.5 * hostspeed.EVERY_S:
            pass
        wall, clock = perf_counter() - t0, speed.clock() - c0
    assert len(samples) >= 3
    assert speed.spent >= sum(samples)
    assert wall - clock == pytest.approx(speed.spent, abs=1e-4)
    assert hostspeed.scale([0.02, 0.03]) == pytest.approx(hostspeed.REFERENCE_S / 0.025)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail(list(range(1000)))[0] == "p99"
    assert workloads.tail(list(range(999)))[0] == "p90"
    assert workloads.tail(list(range(24))) == ("p50", 11.5)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "fingerprint_batch", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
