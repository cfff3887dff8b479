"""Rollout benchmark: zero-downtime live rollout under sustained load.

Three drill scenarios ride the same open-loop Poisson load through a
cluster while a content-addressed v2 artifact is published mid-stream:

* ``commit`` — a byte-distinct but output-identical v2 canaries cleanly
  and commits.  The headline claim: **zero shed, zero lost requests**
  across the full publish → canary → promote → commit sequence.
* ``divergent`` — a v2 with genuinely different weights; the canary
  catches the first mismatched answer and auto-rolls back while every
  client answer keeps coming from the stable digest.
* ``operator`` — a healthy canary aborted by operator command
  (``cluster.rollback``), the ``repro.cli rollback`` path.

A fourth scenario family, ``cache_uniformity``, replays one repeated
request stream against 1/2/4-worker clusters and records the
cluster-wide response-cache hit/miss counts — the cache fronts the
router, so the counts must be **identical at every fleet size** (hit
rates are not routing-shaped).

One record per scenario:

    {op: "rollout", model, shape, scenario, seed, workers, req_per_s,
     offered, completed, shed, failed, phase, canary_samples,
     canary_mismatches, timeline_events, host_cpus, bit_identical}

(``cache_uniformity`` records carry ``hits``/``misses`` instead of the
rollout phase fields.)  Every completed output is verified bit-identical
to a fault-free single-process baseline — a rollout number can never
hide a correctness drift.

Usage:

    PYTHONPATH=src python benchmarks/bench_rollout.py \
        --json benchmarks/BENCH_rollout.json
    PYTHONPATH=src python benchmarks/bench_rollout.py --quick \
        --require-zero-shed --require-uniform-cache --json -
"""

import argparse
import sys
import time

DRILL_SCENARIOS = ("commit", "divergent", "operator")

#: Fleet sizes the cache-uniformity pass sweeps.
CACHE_WORKER_COUNTS = (1, 2, 4)
QUICK_CACHE_WORKER_COUNTS = (1, 2)


def run_drill(args, scenario: str) -> dict:
    from repro.models.zoo import get_serving_config
    from repro.serving.cluster import usable_cpus
    from repro.serving.loadgen import run_rollout_drill
    from repro.serving.rollout import RolloutConfig

    shape = get_serving_config(args.model).input_shape
    operator = scenario == "operator"
    config = RolloutConfig(
        canary_fraction=args.canary_fraction,
        # The operator drill parks the canary on an unreachable quota so
        # the explicit rollback is what terminates it.
        min_canary_samples=(10**9 if operator else args.min_samples),
    )
    result = run_rollout_drill(
        model=args.model,
        workers=args.workers,
        requests=args.requests,
        offered_rps=args.rps,
        seed=args.seed,
        divergent=scenario == "divergent",
        operator_rollback=operator,
        publish_at=args.publish_at,
        rollout=config,
        max_batch_size=args.batch,
        cache_capacity=0,  # rollout drills measure the dispatch path
    )
    return {
        "op": "rollout",
        "model": args.model,
        "shape": list(shape),
        "scenario": scenario,
        "seed": args.seed,
        "workers": args.workers,
        "req_per_s": round(result.ledger.goodput_rps, 2),
        "offered": result.ledger.offered,
        "completed": result.ledger.completed,
        "shed": result.ledger.shed,
        "failed": result.ledger.failed,
        "phase": result.phase,
        "rollback_reason": result.rollback_reason,
        "canary_samples": result.canary.get("samples", 0),
        "canary_mismatches": result.canary.get("mismatches", 0),
        "timeline_events": len(result.timeline),
        "host_cpus": usable_cpus(),
        "bit_identical": result.bit_identical,
    }


def run_cache_uniformity(args, workers: int) -> dict:
    from repro.models.zoo import get_serving_config
    from repro.serving.cluster import ClusterService, usable_cpus
    from repro.serving.loadgen import run_closed_loop, synthetic_images

    shape = get_serving_config(args.model).input_shape
    images = synthetic_images(shape, args.cache_images, seed=args.seed)
    offered = args.cache_images * args.cache_repeats
    cluster = ClusterService(
        models=(args.model,), workers=workers,
        max_batch_size=args.batch, cache_capacity=4 * args.cache_images,
    )
    try:
        t0 = time.perf_counter()
        rows = []
        for _ in range(args.cache_repeats):
            for future in cluster.submit_batch(args.model, images):
                rows.append(future.result(timeout=120.0))
        wall_s = time.perf_counter() - t0
        stats = cluster.cache_stats()
        baseline = cluster.baseline_service()
        try:
            expected = run_closed_loop(baseline, args.model, images).outputs
        finally:
            baseline.close()
    finally:
        cluster.close()
    import numpy as np

    bit_identical = all(
        np.array_equal(rows[i], expected[i % args.cache_images])
        for i in range(len(rows))
    )
    return {
        "op": "rollout",
        "model": args.model,
        "shape": list(shape),
        "scenario": "cache_uniformity",
        "seed": args.seed,
        "workers": workers,
        "req_per_s": round(offered / wall_s, 2) if wall_s > 0 else 0.0,
        "offered": offered,
        "completed": len(rows),
        "hits": stats.hits,
        "misses": stats.misses,
        "host_cpus": usable_cpus(),
        "bit_identical": bit_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="MicroCNN",
                        help="serving-zoo model under rollout")
    parser.add_argument("--workers", type=int, default=2,
                        help="cluster workers for the drill scenarios")
    parser.add_argument("--requests", type=int, default=192,
                        help="offered requests per drill scenario")
    parser.add_argument("--rps", type=float, default=250.0,
                        help="offered Poisson arrival rate")
    parser.add_argument("--batch", type=int, default=16,
                        help="per-worker micro-batch bound")
    parser.add_argument("--publish-at", type=float, default=0.25,
                        help="publish the v2 artifact at this fraction of "
                             "the arrival schedule")
    parser.add_argument("--canary-fraction", type=float, default=0.5,
                        help="traffic fraction mirrored to the canary")
    parser.add_argument("--min-samples", type=int, default=4,
                        help="comparison samples gating promotion")
    parser.add_argument("--cache-images", type=int, default=16,
                        help="distinct images in the cache-uniformity "
                             "stream")
    parser.add_argument("--cache-repeats", type=int, default=3,
                        help="passes over the cache-uniformity stream")
    parser.add_argument("--seed", type=int, default=42,
                        help="arrival/artifact seed (same seed → same "
                             "schedule)")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated subset of "
                             f"{','.join(DRILL_SCENARIOS)},cache_uniformity")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write records to PATH ('-' for stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer requests, 1/2-worker "
                             "cache sweep")
    parser.add_argument("--require-zero-shed", action="store_true",
                        help="fail if any drill scenario shed or lost a "
                             "single request")
    parser.add_argument("--require-uniform-cache", action="store_true",
                        help="fail unless cache hit/miss counts are "
                             "identical at every fleet size")
    args = parser.parse_args(argv)

    if args.quick:
        args.requests = min(args.requests, 96)
        args.rps = min(args.rps, 400.0)
    cache_counts = (QUICK_CACHE_WORKER_COUNTS if args.quick
                    else CACHE_WORKER_COUNTS)
    wanted = (tuple(s.strip() for s in args.scenarios.split(","))
              if args.scenarios
              else DRILL_SCENARIOS + ("cache_uniformity",))
    known = set(DRILL_SCENARIOS) | {"cache_uniformity"}
    unknown = sorted(set(wanted) - known)
    if unknown:
        parser.error(f"unknown scenarios {unknown}; "
                     f"expected among {sorted(known)}")

    from repro.serving.loadgen import write_sweep_records

    records = []
    for scenario in wanted:
        if scenario == "cache_uniformity":
            for workers in cache_counts:
                record = run_cache_uniformity(args, workers)
                records.append(record)
                print(
                    f"cache_uniformity[{workers}w] "
                    f"hits {record['hits']}  misses {record['misses']}  "
                    f"{record['req_per_s']:8.1f} rps  "
                    f"bit_identical={record['bit_identical']}"
                )
            continue
        record = run_drill(args, scenario)
        records.append(record)
        print(
            f"{scenario:<10s} phase {record['phase']:<12s} "
            f"goodput {record['req_per_s']:8.1f} rps  "
            f"completed {record['completed']}/{record['offered']}  "
            f"shed {record['shed']}  failed {record['failed']}  "
            f"samples {record['canary_samples']}  "
            f"mismatches {record['canary_mismatches']}  "
            f"bit_identical={record['bit_identical']}"
        )
    if args.json:
        print(write_sweep_records(records, args.json))

    expected_phase = {"commit": "committed", "divergent": "rolled_back",
                      "operator": "rolled_back"}
    failures = []
    for record in records:
        if not record["bit_identical"]:
            failures.append(f"{record['scenario']}: completed outputs "
                            "diverged from the baseline")
        want = expected_phase.get(record["scenario"])
        if want and record["phase"] != want:
            failures.append(
                f"{record['scenario']}: ended in phase "
                f"{record['phase']!r}, expected {want!r}")
        if args.require_zero_shed and record["scenario"] in expected_phase:
            if record["shed"] or record["failed"]:
                failures.append(
                    f"{record['scenario']}: shed {record['shed']} / failed "
                    f"{record['failed']} — a rollout must not cost a "
                    "single request")
            if record["completed"] != record["offered"]:
                failures.append(
                    f"{record['scenario']}: completed "
                    f"{record['completed']} != offered {record['offered']}")
    if args.require_uniform_cache:
        cache = [(r["workers"], r["hits"], r["misses"]) for r in records
                 if r["scenario"] == "cache_uniformity"]
        if len({(h, m) for _, h, m in cache}) > 1:
            failures.append(
                f"cache hit/miss counts vary with fleet size: {cache} — "
                "the cluster-wide cache must make hit rates "
                "routing-independent")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
