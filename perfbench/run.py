"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload paper-cover --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from
``src/`` beside this directory, never from an installed copy, and the
run fails when ``src/`` is missing.  ``--trace 0`` prints the
end-to-end metrics of a timed pass; ``--trace 1`` runs the same timed
pass and then a traced pass, and prints the per-layer metrics (span
metrics from the traced pass, client-side metrics from the timed one)
plus the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is the full report: the tail percentile with its sample count, the
exact work counts, the per-op failures, the git sha, a source digest
and the machine fingerprint.
The same report is kept in ``perfbench/.out/``.

Work counts are the run's steadiness self-check: they are recorded per
(workload, seed, seconds, source digest) in ``perfbench/.out/`` and a
run whose counts differ from an earlier run of the same key fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

import harness
import tracing
from harness import SRC

#: Metric names and units come from BENCHMARK.json.
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

#: Per-layer metrics read from spans: name -> (span name, field), per op.
#: ``self_ms`` excludes child spans, ``ms`` includes them.
SPAN_METRICS = {
    "core.mincover.self_ms": ("core.mincover", "self_ms"),
    "core.mincover.calls": ("core.mincover", "calls"),
    "core.implication.calls": ("core.implication", "calls"),
    "core.implication.self_ms": ("core.implication", "self_ms"),
    "core.chase.runs": ("core.chase", "calls"),
    "core.chase.self_ms": ("core.chase", "self_ms"),
    "propagation.cover.self_ms": ("propagation.cover", "self_ms"),
    "propagation.rbr.ms": ("propagation.rbr", "ms"),
    "propagation.eqclasses.ms": ("propagation.eqclasses", "ms"),
    "api.wire.encode_ms": ("api.wire.encode", "ms"),
    "api.wire.decode_ms": ("api.wire.decode", "ms"),
    "api.wire.handle_request.self_ms": ("api.wire.handle_request", "self_ms"),
    "engine.keys.self_ms": ("engine.keys", "self_ms"),
    "engine.check_many.self_ms": ("engine.check_many", "self_ms"),
    "engine.cover_many.self_ms": ("engine.cover_many", "self_ms"),
    "propagation.check.self_ms": ("propagation.check", "self_ms"),
    "propagation.spcu_cover.self_ms": ("propagation.spcu_cover", "self_ms"),
    "kernel.chase.self_ms": ("kernel.chase", "self_ms"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One paper-cover set-up in a fresh process (setup_s is their median).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_cpu() -> None:
    """Run the benchmark and every process it starts on one CPU.

    The served workloads' client and server then hand each request over
    by a same-CPU context switch instead of a cross-CPU wake-up, whose
    latency on a shared virtual machine follows the neighbours' load:
    in alternating runs of warm served check batches the pinned p99
    read 4.2-4.6 ms and the unpinned one 11.3-11.5 ms.  One client keeps at most one of the
    two processes busy at a time, so one CPU is enough.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: repro was imported from {origin}, not from {SRC}")


def _timings(latency_ms, setup_s, loop_s, completed) -> dict:
    return {
        "setup_s": harness.median(setup_s) if setup_s else None,
        "ops_per_s": completed / loop_s,
        "latency_ms.p50": harness.median(latency_ms),
        "latency_ms.tail": harness.tail(latency_ms)["value"],
    }


def end_to_end(p) -> tuple[dict, dict]:
    """The end-to-end metrics, every time at reference host speed (a
    closed loop's time is the sum of its op latencies), and the raw
    measurements beside them."""
    latency = p.scaled_latency_ms()
    completed = len(latency) - len(p.errors)
    values = _timings(latency, p.scaled_setup_s(), sum(latency) / 1000.0, completed)
    values["peak_rss_mb"] = p.rss_mb
    detail = {
        "tail": harness.tail(latency),
        "raw": _timings(p.latency_ms(), p.setup_s, p.loop_s, completed),
        "host_speed": {"loop": p.speed.summary(), "setup": p.setup_speed.summary()},
        "setup_samples_s": p.setup_s,
        "loop_s": p.loop_s,
    }
    return values, detail


def client_metrics(workload, timed, traced) -> dict:
    latency = timed.latency_ms()
    scaled = timed.scaled_latency_ms()
    answered = [(i, r) for i, r in enumerate(timed.responses) if r is not None]
    counts = harness.stats_counts(timed)
    edits = [r for i, r in answered if workload.kinds[i] == "edit"]
    retained = sum(u.retained for u in edits)
    invalidated = sum(u.invalidated for u in edits)
    seed_hits = counts["cover_seed_hits"]

    def kind_p50(kind):
        samples = [scaled[i] for i, _ in answered if workload.kinds[i] == kind]
        return harness.median(samples) if samples else 0.0

    return {
        "service.elapsed_ms.p50": harness.median([r.stats.elapsed_ms for _, r in answered]),
        "api.overhead_ms.p50": harness.median(
            [latency[i] - r.stats.elapsed_ms for i, r in answered]
        ),
        "engine.memo_hit_ratio": harness.ratio(counts["memo_hits"], counts["queries"]),
        "engine.chases_per_op": counts["engine.chases"] / len(latency),
        "engine.pair_chases_per_edit": harness.ratio(
            counts["engine.pair_chases"], len(edits)
        ),
        "engine.cover_seed_hit_ratio": harness.ratio(
            seed_hits, seed_hits + counts["cover_seed_misses"]
        ),
        "engine.retained_ratio": harness.ratio(retained, retained + invalidated),
        "op.edit.latency_ms.p50": kind_p50("edit"),
        "op.check.latency_ms.p50": kind_p50("check"),
        "op.cover.latency_ms.p50": kind_p50("cover"),
        "trace.overhead_ms.p50": harness.median(traced.scaled_latency_ms())
        - harness.median(scaled),
    }


def per_layer(workload, timed, traced) -> tuple[dict, dict]:
    n = len(traced.latency_s)
    rids = range(traced.rid0, traced.rid0 + n)
    layers = tracing.by_layer(traced.spans, rids)
    values = {
        name: layers.get(span, {}).get(field, 0) / n
        for name, (span, field) in SPAN_METRICS.items()
    }
    values.update(client_metrics(workload, timed, traced))
    # Self times under an op partition the wrapped part of it, so their
    # sum can never exceed the op's client-side latency.
    self_ms = tracing.self_ms_by_request(traced.spans)
    latency = traced.latency_ms()
    over = [
        i for i in range(n) if self_ms.get(traced.rid0 + i, 0.0) > latency[i] + 1e-6
    ]
    detail = {
        "layers": layers,
        "spans": len(traced.spans),
        "self_time_over_latency_ops": over[:20],
        "traced_end_to_end": end_to_end(traced)[0],
    }
    return values, detail


def check_ledger(key: str, counts: dict) -> str | None:
    """Compare *counts* with an earlier run of the same key; record them."""
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / "work-counts.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    earlier = ledger.get(key)
    if earlier is not None and earlier != counts:
        return f"work counts differ from an earlier run of {key}: {earlier} != {counts}"
    ledger[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)
    return None


def run(args) -> dict:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls.setup()
        return {}
    workload = cls(args.seed, args.seconds)
    timed = workload.run_pass(traced=False)
    traced = workload.run_pass(traced=True) if args.trace else None
    passes = [timed] + ([traced] if traced else [])

    source = harness.source_digest()
    expected = harness.expected_digests(workload, source)
    problems: list[str] = []
    failed_ops: dict[str, str] = {}
    for label, p in zip(("timed", "traced"), passes):
        for key, message in {**p.errors, **workload.failures(p, expected)}.items():
            if isinstance(key, int):
                failed_ops[f"{label} op {key}"] = message
            else:
                problems.append(f"{label} set-up answer {key}: {message}")
    counts = workload.work_counts(timed)
    if traced is not None:
        traced_counts = workload.work_counts(traced)
        if traced_counts != counts:
            problems.append(f"traced pass work counts {traced_counts} != timed {counts}")
    key = f"{args.workload}|seed={args.seed}|seconds={args.seconds}|source={source}"
    mismatch = check_ledger(key, counts)
    if mismatch:
        problems.append(mismatch)

    if traced is None:
        values, detail = end_to_end(timed)
    else:
        values, detail = per_layer(workload, timed, traced)
        if detail["self_time_over_latency_ops"]:
            problems.append("span self times exceed an op's latency")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    attempted = sum(len(p.latency_s) for p in passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": workload.n,
        "work_counts": counts,
        "failed_ops": failed_ops,
        "problems": problems,
        "detail": detail,
        "provenance": {
            "git_sha": harness.git_sha(),
            "source_digest": source,
            "machine": harness.machine(),
        },
    }
    harness.OUT.mkdir(exist_ok=True)
    (harness.OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps(report, sort_keys=True, default=str))
    return {
        "correct": not failed_ops and not problems,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    pin_cpu()
    import_program()
    try:
        result = run(args)
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 1
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
