"""Benchmark of the bqsos package: one workload, one seed, one process.

    python3 perfbench/run.py --workload claims-lemma --seed 1 --seconds 20 --trace 0

With --trace 0 the workload runs whole passes until --seconds of op time
have been measured and the end-to-end metrics are reported.  With --trace 1
it makes a fixed number of passes, first untraced and then traced, and
reports per-layer times and counts; the counts repeat exactly for one seed.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record, with machine facts and (when traced) every span, is written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from time import perf_counter

from harness import (
    ROOT,
    BenchError,
    NullTracer,
    Tracer,
    import_fresh,
    machine_info,
    peak_rss_mb,
    weighted_percentile,
)
from workloads import EXTRA_SPANS, WORKLOADS

BENCH_DIR = ROOT / "perfbench"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer times: metric "<span>_s" sums the spans of that name.
LAYER_SPANS = (
    "decomposition.enum",
    "decomposition.search",
    "decomposition.levels_base",
    "decomposition.levels",
    "decomposition.cache_save",
    "decomposition.cache_load",
    "cli.call",
    "orders.build",
    "parser.parse",
    "verification.construct",
    "fields.replay",
)
LAYER_COUNTS = (
    "decomposition.enum_dominated",
    "decomposition.enum_ball",
    "decomposition.search_nodes",
    "decomposition.verdicts_exact",
    "decomposition.verdicts_not_sos",
    "decomposition.level_values",
    "decomposition.levels_count",
    "decomposition.cache_bytes",
    "cli.stdout_bytes",
    "orders.builds",
    "parser.calls",
    "verification.claims",
    "fields.replays",
)
COUNT_UNITS = {"decomposition.cache_bytes": "B", "cli.stdout_bytes": "B"}
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{name: COUNT_UNITS.get(name, "count") for name in LAYER_COUNTS},
    "decomposition.enum_useful_ratio": "ratio",
    "cli.render_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def with_oracle(cls, overrides):
    if "oracle" in overrides:
        return overrides
    oracle = cls.make_oracle(import_fresh(), **overrides)
    return overrides if oracle is None else {**overrides, "oracle": oracle}


def timed_run(cls, seed, seconds, workdir, overrides):
    """Set up several times, then run whole passes for `seconds` of op time."""
    overrides = with_oracle(cls, overrides)
    setup = []
    for i in range(cls.setup_repeats):
        start = perf_counter()
        api = import_fresh()
        workload = cls(api, seed, NullTracer(), workdir / f"setup{i}", **overrides)
        workload.warm_up()
        setup.append(perf_counter() - start)
    # Whole blocks of passes until `seconds` of op time.  ops_per_s is the
    # median over blocks, so a slow spell on a shared machine moves it less;
    # an op's latency is its median over the passes that made it.
    blocks, ops, busy, passes, latencies = [], 0, 0.0, 0, {}
    while not blocks or sum(b for _, b in blocks) < seconds or passes % cls.block_passes:
        pass_samples, pass_busy = workload.run_pass(passes)
        for key, latency, weight in pass_samples:
            latencies.setdefault(key, (weight, []))[1].append(latency)
            ops += weight
        busy += pass_busy
        passes += 1
        if passes % cls.block_passes == 0:
            blocks.append((ops, busy))
            ops, busy = 0, 0.0
    # The oracle in finish() is not part of the workload's memory.
    rss = peak_rss_mb()
    workload.finish()
    per_op = [(statistics.median(times), weight) for weight, times in latencies.values()]
    metrics = {
        "ops_per_s": statistics.median(n / b for n, b in blocks),
        "latency_p50_ms": weighted_percentile(per_op, 0.5) * 1000.0,
        "latency_p90_ms": weighted_percentile(per_op, 0.9) * 1000.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    extra = {
        "passes": passes,
        "busy_s": sum(b for _, b in blocks),
        "blocks": [{"ops": n, "busy_s": b} for n, b in blocks],
        "latency_samples": sum(w for _, w in per_op),
        "setup_runs_s": setup,
    }
    return workload, metrics, END_TO_END_UNITS, extra


def traced_run(cls, seed, workdir, overrides):
    """A fixed number of untraced passes, then the same passes traced."""
    overrides = with_oracle(cls, overrides)
    tracer = Tracer()
    api = import_fresh()
    tracer.op = "setup"
    workload = cls(api, seed, tracer, workdir / "setup0", **overrides)
    tracer.op = "warmup"
    workload.warm_up()

    workload.tracer = NullTracer()
    untraced = 0.0
    for i in range(cls.traced_passes):
        untraced += workload.run_pass(i)[1]
    workload.tracer = tracer
    mark = len(tracer.spans)
    for i in range(cls.traced_passes):
        workload.traced_pass(i)
    workload.finish()

    # Overhead: traced op time, less the calls the untraced pass does not
    # make inside its timed ops, less the untraced op time.
    spans = tracer.spans[mark:]
    op_time = sum(s[2] - s[1] for s in spans if s[0] == "op")
    extra = sum(
        s[2] - s[1] for s in spans
        if s[0] in EXTRA_SPANS
        and (s[3] is None or tracer.spans[s[3]][0] not in EXTRA_SPANS)
    )
    counts = tracer.counters
    metrics = {f"{name}_s": tracer.total(name) for name in LAYER_SPANS}
    metrics.update({name: counts[name] for name in LAYER_COUNTS})
    ball = counts["decomposition.enum_ball"]
    metrics["decomposition.enum_useful_ratio"] = (
        counts["decomposition.enum_dominated"] / ball if ball else 0.0
    )
    metrics["cli.render_s"] = tracer.total("cli.call") - tracer.total("cli.library")
    metrics["trace.overhead_s"] = op_time - extra - untraced
    metrics["trace.spans"] = len(tracer.spans)
    extra_facts = {
        "passes": cls.traced_passes,
        "untraced_op_s": untraced,
        "traced_op_s": op_time,
        "traced_extra_s": extra,
        "spans": tracer.dump(),
    }
    return workload, metrics, PER_LAYER_UNITS, extra_facts


def run(name, seed, seconds, trace, **overrides):
    """Run one workload; returns the full result record."""
    cls = WORKLOADS[name]
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    try:
        if trace:
            workload, metrics, units, extra = traced_run(cls, seed, workdir, overrides)
        else:
            workload, metrics, units, extra = timed_run(cls, seed, seconds, workdir, overrides)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = workload.attempted, workload.failed
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_info(),
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": workload.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "workload_facts": workload.report(),
        **extra,
    }


def write_result(record):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_result(record)

    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  git {record['machine']['git_sha']}  python {record['machine']['python']}"
          f"  nproc {record['machine']['nproc']}  cpu {record['machine']['cpu_model']}")
    for key, metric in record["metrics"].items():
        print(f"  {key:36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':36} {record['error_rate']:>16.6g} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    if "latency_samples" in record:
        print(f"  latency samples {record['latency_samples']} ops; {record['passes']} passes"
              f" in {len(record['blocks'])} blocks")
    for message in record["failures"]:
        print(f"  FAILED: {message}")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
