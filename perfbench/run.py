"""Benchmark of hopfarb's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``
next to this directory; without it the command exits 2 and prints no
result.  Workloads (see ``workloads.py``): ``order_sweep`` and
``fingerprint_batch``.

Each run warms up in-process, then runs whole passes of the workload
until ``--seconds`` have gone by.  Between passes, spread evenly over
that window, it times a fresh interpreter's ``import hopfarb`` plus an
untimed warm-up several times (``setup_s``, the median).  Every time is
scaled to a reference host speed measured alongside it (``hostspeed.py``),
which takes out most of the drift of a shared machine; the unscaled
figures are printed above the result.  Every output is checked; a failed
check counts against the operations attempted and makes the exit status 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record a span around every call into
hopfarb, reports the per-layer metrics derived from those spans (median
over traced passes) and the tracing overhead, and writes the spans to
``perfbench/out/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 25


def interpreter_sample(code: str) -> float:
    """Wall time of one fresh interpreter running ``code`` (``sys.argv[1]`` is ``src/``)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-500:]}")
    return dt


def run_plain(wl, seconds: float):
    """Passes until ``seconds`` have gone by, and the median set-up time.

    Both are scaled to the reference host (``hostspeed``): each pass by
    kernel times sampled during it, each set-up sample by a bare
    interpreter start taken just before it.  The set-up samples are spread
    evenly over the same window, between passes, so that they see the same
    host conditions as the passes do.
    """
    speed = hostspeed.HostSpeed()
    api = workloads.plain_api()
    api.clock = speed.clock
    code = "import sys\nsys.path.insert(0, sys.argv[1])\nimport hopfarb\n" + wl.warmup
    records, setups, raw_setups = [], [], []
    t0 = perf_counter()

    def setup_due() -> bool:
        return len(setups) < SETUP_SAMPLES and perf_counter() - t0 >= len(setups) * seconds / SETUP_SAMPLES

    def take_setup() -> None:
        bare = interpreter_sample("import sys")
        raw = interpreter_sample(code)
        raw_setups.append(raw)
        setups.append(raw * hostspeed.REFERENCE_START_S / bare)

    while not records or perf_counter() - t0 < seconds:
        while setup_due():
            take_setup()
        rec = workloads.PassRecord()
        with speed.sampling(rec.kernel):
            wl.run_pass(api, wl.inputs(len(records)), rec)
        records.append(rec)
    while len(setups) < SETUP_SAMPLES:
        take_setup()
    return records, statistics.median(setups), statistics.median(raw_setups)


def run_traced(wl, seconds: float, out_path: Path):
    """Alternate untraced and traced passes; per-layer metrics of each traced pass."""
    tracer = spans.Tracer()
    api = workloads.plain_api()
    tapi, patches = workloads.traced_api(tracer)
    repeats = workloads.RepeatCounter()
    plain, traced, layers = [], [], []
    pass_no = 0
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        rec = workloads.PassRecord(keep_stdout=True)
        inputs = wl.inputs(pass_no)
        wl.run_pass(api, inputs, rec)
        repeats.add_pass(wl.fingerprinted(inputs, rec))
        rec.stdout.clear()
        plain.append(rec)
        inputs = wl.inputs(pass_no + 1)
        pass_no += 2
        rec = workloads.PassRecord(keep_stdout=True)
        lo = len(tracer)
        with spans.patched(patches):
            wl.run_pass(tapi, inputs, rec)
            if hasattr(wl, "split_invariants"):
                wl.split_invariants(tapi, inputs)
        traced.append(rec)
        share = repeats.add_pass(wl.fingerprinted(inputs, rec))
        layers.append(workloads.layer_metrics(tracer, lo, len(tracer), rec, share))
        rec.stdout.clear()
    overhead = (
        statistics.median(sum(r.ops) for r in traced) / statistics.median(sum(r.ops) for r in plain) - 1
    )
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["invariants.repeat_share_run"] = repeats.run_share
    metrics["trace.overhead_ratio"] = overhead
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)
    return plain + traced, metrics


def end_to_end(records, setup_s: float):
    """End-to-end metrics, every time scaled to the reference host."""
    ops = [x * r.scale() for r in records for x in r.ops]
    pct, tail_s = workloads.tail(ops)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": statistics.median(len(r.ops) / (sum(r.ops) * r.scale()) for r in records),
        "op_p50_ms": statistics.median(ops) * 1000,
        "op_tail_ms": tail_s * 1000,
    }
    return metrics, f"{pct} of {len(ops)} ops"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hopfarb" / "__init__.py").is_file():
        print(f"error: hopfarb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hopfarb

    if Path(hopfarb.__file__).resolve().parent != SRC / "hopfarb":
        print(f"error: imported hopfarb from {hopfarb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    exec(compile(wl.warmup, "<warm-up>", "exec"), {})
    if args.trace:
        out = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        records, metrics = run_traced(wl, args.seconds, out)
        units = workloads.PER_LAYER
        notes = [f"spans written to {out.relative_to(ROOT)}"]
    else:
        records, setup_s, raw_setup_s = run_plain(wl, args.seconds)
        metrics, tail_note = end_to_end(records, setup_s)
        units = workloads.END_TO_END
        kernel = [k for r in records for k in r.kernel]
        raw_ops = [x for r in records for x in r.ops]
        notes = [
            f"op_tail_ms is the {tail_note}",
            f"op times are scaled to a host where hostspeed.kernel takes {hostspeed.REFERENCE_S * 1000:g} ms;"
            f" here it took {statistics.median(kernel) * 1000:.4g} ms (median of {len(kernel)})",
            f"setup_s is scaled to a host where a bare interpreter starts in {hostspeed.REFERENCE_START_S:g} s",
            f"unscaled: op_p50_ms {statistics.median(raw_ops) * 1000:.6g}, setup_s {raw_setup_s:.6g}",
        ]
        notes += [f"{alias} {metrics[name]:.6g} {units[name]} (= {name})" for name, alias in wl.aliases.items()]
        notes += [f"{name} {value:.6g} {unit}" for name, value, unit in wl.summary(records)]

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    for message in [e for r in records for e in r.errors][:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} passes={len(records)} python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} jobs=1")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
