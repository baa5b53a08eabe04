"""Cold-chase throughput: the packed kernel against the baseline.

The bit-packed chase kernel (``src/repro/kernel/``, PR 9) answers the
*cold* half of a propagation batch — the first time a query shape meets
a branch-pair space, before any memo tier is warm.  The warm path was
already O(1) per hit; this series measures what the kernel buys on the
miss path, on the workload where the k² pair loop dominates: the
Example 4.1 exponential family as a projection view with its
``2^n`` eta-combination queries (``example_41_workload``, the same batch
the server smoke tests replay).

One *cold batch* = a fresh :class:`~repro.propagation.check.BranchPairCache`
plus one ``find_counterexample`` call per query.  Each (kernel, n) cell
reports the best of ``REPRO_KERNEL_REPEATS`` batches — cold-path work is
deterministic, so min-of-N isolates it from scheduler noise.

Two entry points, following ``bench_fuzz.py``:

- **pytest** (``PYTHONPATH=src:benchmarks python -m pytest
  benchmarks/bench_kernel.py``): one cold batch per kernel per size
  through the shared ``record_point`` series, asserting the two kernels
  return identical verdicts.
- **``--smoke``** (pytest-free, for CI): the full size sweep for both
  kernels plus a baseline-vs-kernel differential fuzz leg, writing the
  per-size speedups to ``BENCH_kernel.json``.  Exits nonzero if the
  verdicts ever diverge or the kernel fails to beat the baseline at the
  largest size.  A second series, ``cold-cover``, times the packed
  implication of :mod:`repro.kernel.implication` on one cold |Sigma|=200
  Fig 5 cover (Sigma scoped to the view's sources, as ``PropCFD_SPC``
  line 1 sees it): the input MinCover (line 1), the final MinCover
  (line 13, over ``Sigma_c`` plus the equality-form CFDs of ``EQ2CFD``)
  and the whole cover under each kernel, with a byte-identity check of
  each.

Env knobs:

- ``REPRO_KERNEL_SIZES``   — comma-separated n values (default 3,4,5);
- ``REPRO_KERNEL_REPEATS`` — batches per cell (default 5);
- ``REPRO_FUZZ_CASES``     — cases for the differential leg (default 48).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.core.mincover import min_cover
from repro.kernel import KERNELS
from repro.propagation.check import BranchPairCache, find_counterexample
from repro.propagation.closure_baseline import example_41_workload
from repro.propagation.cover import prop_cfd_spc_report
from repro.propagation.engine import scoped_sigma, touched_relations

from conftest import make_schema, make_sigma, make_view, record_point

SIZES = [
    int(part)
    for part in os.environ.get("REPRO_KERNEL_SIZES", "3,4,5").split(",")
    if part.strip()
]
REPEATS = int(os.environ.get("REPRO_KERNEL_REPEATS", "5") or "5")
FUZZ_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "48") or "48")

#: Where ``--smoke`` accumulates its speedup records.
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _cold_batch(kernel: str, n: int) -> tuple[float, list[bool]]:
    """Best-of-``REPEATS`` cold-batch seconds plus the verdict vector."""
    view, sigma, queries = example_41_workload(n, defeat_fast_path=True)
    verdicts: list[bool] = []
    best = float("inf")
    for attempt in range(REPEATS):
        cache = BranchPairCache(view, enabled=True)
        started = time.perf_counter()
        answers = [
            find_counterexample(sigma, view, phi, cache=cache, kernel=kernel)
            is None
            for phi in queries
        ]
        best = min(best, time.perf_counter() - started)
        if attempt == 0:
            verdicts = answers
        else:
            assert answers == verdicts, "cold batch verdicts must be stable"
    return best, verdicts


def _best_of(call) -> tuple[float, object]:
    """Best-of-``REPEATS`` seconds of *call* plus its (stable) result."""
    best, result = float("inf"), None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def _cold_cover(size: int = 200, var_pct: float = 0.5) -> tuple[dict, bool]:
    """One cold Fig 5 cover per kernel: MinCover and cover times."""
    schema = make_schema()
    view = make_view(schema)
    sigma = make_sigma(schema, size, var_pct)
    scoped = scoped_sigma(sigma, touched_relations(view))
    # The final MinCover's input: Sigma_c plus EQ2CFD's view CFDs, as
    # line 13 receives them.
    combined = prop_cfd_spc_report(sigma, view, final_min_cover=False).cover
    cells: dict[str, float] = {}
    answers: dict[str, dict] = {}
    for kernel in KERNELS:
        mc_s, minimized = _best_of(lambda: min_cover(scoped, kernel=kernel))
        final_s, final = _best_of(lambda: min_cover(combined, kernel=kernel))
        cover_s, report = _best_of(
            lambda: prop_cfd_spc_report(sigma, view, kernel=kernel)
        )
        cells[f"{kernel}_mincover_s"] = round(mc_s, 6)
        cells[f"{kernel}_final_mincover_s"] = round(final_s, 6)
        cells[f"{kernel}_cover_s"] = round(cover_s, 6)
        answers[kernel] = {
            "mincover": [repr(phi) for phi in minimized],
            "final_mincover": [repr(phi) for phi in final],
            "cover": [repr(phi) for phi in report.cover],
        }
    same = {
        f"{leg}_identical": answers["bitset"][leg] == answers["baseline"][leg]
        for leg in answers["baseline"]
    }
    identical = all(same.values())
    entry = {
        "workload": f"Fig 5 view (|Y|=25, |F|=10, |Ec|=4), |Sigma|={size}, var%={int(var_pct * 100)}",
        "repeats": REPEATS,
        "scoped_sigma": len(scoped),
        "final_input": len(combined),
        "final_equality_cfds": sum(phi.is_equality for phi in combined),
        **cells,
        "mincover_speedup": round(cells["baseline_mincover_s"] / cells["bitset_mincover_s"], 2),
        "final_mincover_speedup": round(
            cells["baseline_final_mincover_s"] / cells["bitset_final_mincover_s"], 2
        ),
        "cover_speedup": round(cells["baseline_cover_s"] / cells["bitset_cover_s"], 2),
        **same,
        "identical": identical,
    }
    return entry, identical


def _warm_imports() -> None:
    """Pay one-time lazy-import costs before any timed batch."""
    for kernel in KERNELS:
        _cold_batch(kernel, 1)


def test_cold_chase_kernel_speedup():
    _warm_imports()
    n = max(s for s in SIZES if s <= 4)  # keep the pytest leg quick
    results = {}
    for kernel in KERNELS:
        seconds, verdicts = _cold_batch(kernel, n)
        results[kernel] = (seconds, verdicts)
        record_point(
            "cold-chase kernel (Example 4.1 family)",
            n,
            kernel,
            seconds,
            {"queries": 2**n},
        )
    assert results["bitset"][1] == results["baseline"][1]


# ----------------------------------------------------------------------
# --smoke: the CI sweep (no pytest machinery).
# ----------------------------------------------------------------------


def _record_bench(key: str, entry: dict) -> None:
    """Merge one record into ``BENCH_kernel.json`` (keyed per leg)."""
    doc: dict = {}
    if BENCH_FILE.exists():
        try:
            doc = json.loads(BENCH_FILE.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[key] = entry
    BENCH_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"bench_kernel --smoke: wrote {key} to {BENCH_FILE}")


def _smoke() -> int:
    started = time.perf_counter()
    _warm_imports()
    sweep: dict[str, dict] = {}
    failed = False
    for n in SIZES:
        cells = {}
        verdicts = {}
        for kernel in KERNELS:
            seconds, answers = _cold_batch(kernel, n)
            cells[kernel] = seconds
            verdicts[kernel] = answers
        if verdicts["bitset"] != verdicts["baseline"]:
            print(f"bench_kernel --smoke: verdicts diverge at n={n}", file=sys.stderr)
            failed = True
        speedup = cells["baseline"] / cells["bitset"] if cells["bitset"] else 0.0
        sweep[f"n={n}"] = {
            "queries": 2**n,
            "baseline_s": round(cells["baseline"], 6),
            "bitset_s": round(cells["bitset"], 6),
            "speedup": round(speedup, 2),
        }
        print(
            f"bench_kernel --smoke: n={n} baseline={cells['baseline'] * 1e3:.2f}ms "
            f"bitset={cells['bitset'] * 1e3:.2f}ms speedup={speedup:.2f}x"
        )
    largest = sweep[f"n={max(SIZES)}"]
    if largest["speedup"] < 1.0:
        print(
            f"bench_kernel --smoke: kernel slower than baseline at "
            f"n={max(SIZES)} ({largest['speedup']}x)",
            file=sys.stderr,
        )
        failed = True

    cover_entry, identical = _cold_cover()
    print(
        f"bench_kernel --smoke: cold Fig 5 cover MinCover "
        f"baseline={cover_entry['baseline_mincover_s'] * 1e3:.1f}ms "
        f"bitset={cover_entry['bitset_mincover_s'] * 1e3:.1f}ms "
        f"({cover_entry['mincover_speedup']}x), final MinCover "
        f"baseline={cover_entry['baseline_final_mincover_s'] * 1e3:.1f}ms "
        f"bitset={cover_entry['bitset_final_mincover_s'] * 1e3:.1f}ms "
        f"({cover_entry['final_mincover_speedup']}x), identical={identical}"
    )
    if not identical:
        print("bench_kernel --smoke: packed MinCover diverges from the baseline", file=sys.stderr)
        failed = True

    # The differential leg: the fuzz matrix restricted to baseline vs
    # the kernel-pinned service, so the artifact also records that the
    # speedup was measured on answer-identical implementations.
    from repro.fuzz import run_fuzz

    report = run_fuzz(FUZZ_CASES, 0, matrix=["baseline", "kernel"])
    if not report.ok:
        for failure in report.failures:
            print(failure.describe(), file=sys.stderr)
        failed = True

    _record_bench(
        "cold-chase",
        {
            "workload": "example_41_workload(defeat_fast_path=True)",
            "repeats": REPEATS,
            "sizes": dict(sorted(sweep.items())),
        },
    )
    _record_bench("cold-cover", cover_entry)
    _record_bench(
        "differential",
        {
            "cases": report.cases,
            "matrix": report.matrix,
            "disagreements": len(report.failures),
            "digest": report.digest,
        },
    )
    if failed:
        return 1
    print(
        f"bench_kernel --smoke OK: {largest['speedup']}x at n={max(SIZES)}, "
        f"{report.cases} differential cases agree "
        f"(total {time.perf_counter() - started:.1f}s)"
    )
    return 0


def main(argv: list[str]) -> int:
    if "--smoke" not in argv:
        print(
            "usage: python benchmarks/bench_kernel.py --smoke\n"
            "  (REPRO_KERNEL_SIZES=3,4,5, REPRO_KERNEL_REPEATS=N; the "
            "pytest entry point is `python -m pytest benchmarks/bench_kernel.py`)",
            file=sys.stderr,
        )
        return 2
    return _smoke()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
