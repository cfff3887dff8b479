"""Elastic scheduling benchmark: spike absorption + pinned hetero fleets.

Two modes, one BENCH trajectory file:

**Spike absorption** (default) offers a phased Poisson load to an
autoscaled single-model cluster — a warm trickle, then a shed-inducing
spike sliced into fixed windows, then idle — and records how the control
loop behaves as a trajectory, not just a pass/fail:

    {op: "autoscale_spike", model, shape, phase, slice, offered_rps,
     offered, shed, shed_rate, workers, req_per_s}       (one per slice)
    {op: "autoscale_absorb", model, shape, req_per_s, capacity_rps,
     time_to_absorb_s, steady_shed_rate, grow_events, peak_workers,
     time_to_shrink_s, host_cpus, bit_identical}         (summary)

The spike is offered *below* one worker's calibrated capacity but with an
admission window (``--max-outstanding``) tight enough that Poisson bursts
shed on a one-worker fleet: growing the fleet widens the fleet-wide
window, so "absorbed" is observable on any host — including a 1–2 CPU CI
runner where extra processes add no real compute.  ``time_to_absorb_s``
is the spike time elapsed until the first zero-shed slice after a grow;
``steady_shed_rate`` is the last slice's shed rate (~0 when absorbed).
After the spike, the bench waits for the idle shrink back to
``min_workers`` and records ``time_to_shrink_s``.

**Heterogeneous fleet** (``--hetero``) serves a big model next to a small
one (VGG16 + MicroCNN by default) twice — pinned (big model on 1 worker,
small on the rest) vs attach-everything — and records startup, per-worker
attach surface and per-model closed-loop throughput:

    {op: "autoscale_hetero", model, variant, shape, workers, req_per_s,
     startup_s, ready_ms_max, attach_bytes_mean, attach_bytes_max,
     store_bytes, host_cpus, bit_identical}

Every completed output in both modes is verified bit-identical to the
single-process service over the same published artifact — an elasticity
result can never hide a correctness drift.

Usage:

    PYTHONPATH=src python benchmarks/bench_autoscale.py \
        --json benchmarks/BENCH_autoscale.json --require-absorb
    PYTHONPATH=src python benchmarks/bench_autoscale.py --hetero --json -
    PYTHONPATH=src python benchmarks/bench_autoscale.py --quick \
        --hetero --require-absorb --require-pinned-win --json -
"""

import argparse
import sys
import time


def spike_records(args) -> list:
    from repro.models.zoo import get_serving_config
    from repro.serving import AutoscaleConfig, ClusterService, run_spike_load
    from repro.serving.cluster import usable_cpus
    from repro.serving.loadgen import (
        baseline_outputs,
        run_closed_loop,
        synthetic_images,
    )

    shape = get_serving_config(args.model).input_shape
    images = synthetic_images(shape, 32, seed=args.seed)
    config = AutoscaleConfig(
        min_workers=1, max_workers=args.max_workers,
        grow_consecutive=2, shrink_consecutive=8, idle_utilization=0.25,
        cooldown_s=0.5, interval_s=0.05,
    )
    cluster = ClusterService(
        models=(args.model,), workers=1, max_batch_size=args.batch,
        max_wait_ms=args.max_wait_ms, max_outstanding=args.max_outstanding,
        heartbeat_interval_s=0.1, autoscale=config,
    )
    records = []
    try:
        expected = baseline_outputs(cluster, {args.model: images})
        # One-worker capacity calibrates the spike: bursty but sub-capacity,
        # so absorption is about admission windows, not raw compute.
        calibrate = run_closed_loop(cluster, args.model, images)
        capacity_rps = images.shape[0] / calibrate.wall_s
        warm_rps = max(1.0, args.warm_x * capacity_rps)
        spike_rps = max(2.0, args.spike_x * capacity_rps)

        # One ledger group per slice: each spike slice gets its own name.
        phases = [("warm", warm_rps, args.slice_s)]
        phases += [(f"spike{index}", spike_rps, args.slice_s)
                   for index in range(args.spike_slices)]
        ledger = run_spike_load(cluster, args.model, images, phases,
                                seed=args.seed)

        workers_now = len(cluster.router.workers())
        time_to_absorb_s = None
        elapsed = 0.0
        for index, (name, offered_rps, duration_s) in enumerate(phases[1:]):
            phase = ledger.group(name)
            if phase.shed == 0 and time_to_absorb_s is None and index > 0:
                time_to_absorb_s = elapsed
            elapsed += duration_s
            records.append({
                "op": "autoscale_spike", "model": args.model,
                "shape": list(shape), "phase": "spike", "slice": index,
                "offered_rps": round(offered_rps, 2),
                "offered": phase.offered, "shed": phase.shed,
                "shed_rate": round(phase.shed_rate, 4),
                "workers": workers_now,
                "req_per_s": round((phase.offered - phase.shed)
                                   / duration_s, 2),
            })
        steady_shed_rate = ledger.group(phases[-1][0]).shed_rate
        grow_events = sum(1 for e in cluster.autoscale_events
                          if e.action == "grow")
        peak_workers = max((e.workers_target for e in cluster.autoscale_events
                            if e.action == "grow"),
                           default=len(cluster.router.workers()))

        # Idle now: wait for the shrink back to min_workers.
        t0 = time.perf_counter()
        time_to_shrink_s = None
        deadline = t0 + args.shrink_timeout_s
        while time.perf_counter() < deadline:
            if len(cluster.router.workers()) <= config.min_workers:
                time_to_shrink_s = time.perf_counter() - t0
                break
            time.sleep(0.05)

        records.append({
            "op": "autoscale_absorb", "model": args.model,
            "shape": list(shape),
            "req_per_s": round(ledger.goodput_rps, 2),
            "capacity_rps": round(capacity_rps, 2),
            "time_to_absorb_s": (None if time_to_absorb_s is None
                                 else round(time_to_absorb_s, 3)),
            "steady_shed_rate": round(steady_shed_rate, 4),
            "grow_events": grow_events,
            "peak_workers": peak_workers,
            "time_to_shrink_s": (None if time_to_shrink_s is None
                                 else round(time_to_shrink_s, 3)),
            "host_cpus": usable_cpus(),
            "bit_identical": ledger.bit_identical(expected),
        })
    finally:
        cluster.close()
    return records


def hetero_records(args) -> list:
    from repro.models.zoo import get_serving_config
    from repro.serving import ClusterService
    from repro.serving.cluster import usable_cpus
    from repro.serving.loadgen import run_closed_loop, synthetic_images

    big, small = args.hetero_models
    workers = args.hetero_workers
    pins = {big: 1, small: max(1, workers - 1)}
    records = []
    for variant, pin_models in (("pinned", pins), ("attach_everything", None)):
        t0 = time.perf_counter()
        cluster = ClusterService(
            models=(big, small), workers=workers,
            max_batch_size=args.batch, max_wait_ms=args.max_wait_ms,
            pin_models=pin_models,
        )
        startup_s = time.perf_counter() - t0
        try:
            detail = cluster.worker_detail()
            attach_bytes = [d["attach_bytes"] for d in detail.values()]
            ready_ms_max = max(d["ready_ms"] or 0.0 for d in detail.values())
            store_bytes = sum(h.nbytes
                              for h in cluster.store.handles().values())
            for model in (big, small):
                shape = get_serving_config(model).input_shape
                images = synthetic_images(shape, args.hetero_requests,
                                          seed=args.seed)
                baseline = cluster.baseline_service()
                try:
                    base = run_closed_loop(baseline, model, images)
                finally:
                    baseline.close()
                run = run_closed_loop(cluster, model, images)
                import numpy as np

                records.append({
                    "op": "autoscale_hetero", "model": model,
                    "variant": variant, "shape": list(shape),
                    "workers": workers,
                    "req_per_s": round(images.shape[0] / run.wall_s, 2),
                    "startup_s": round(startup_s, 3),
                    "ready_ms_max": round(ready_ms_max, 1),
                    "attach_bytes_mean": int(sum(attach_bytes)
                                             / len(attach_bytes)),
                    "attach_bytes_max": max(attach_bytes),
                    "store_bytes": store_bytes,
                    "host_cpus": usable_cpus(),
                    "bit_identical": bool(
                        np.array_equal(run.outputs, base.outputs)),
                })
        finally:
            cluster.close()
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="MicroCNN",
                        help="serving-zoo model for the spike mode")
    parser.add_argument("--batch", type=int, default=16,
                        help="per-worker micro-batch bound")
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--max-outstanding", type=int, default=4,
                        help="per-worker admission window; tight on purpose "
                             "so Poisson bursts shed on a one-worker fleet")
    parser.add_argument("--max-workers", type=int, default=3,
                        help="autoscaler ceiling for the spike mode")
    parser.add_argument("--warm-x", type=float, default=0.2,
                        help="warm-phase offered load as a fraction of the "
                             "calibrated one-worker capacity")
    parser.add_argument("--spike-x", type=float, default=0.75,
                        help="spike offered load as a fraction of capacity "
                             "(sub-capacity: absorption = admission window)")
    parser.add_argument("--spike-slices", type=int, default=10,
                        help="number of fixed-duration spike windows")
    parser.add_argument("--slice-s", type=float, default=0.5,
                        help="duration of each phase window in seconds")
    parser.add_argument("--shrink-timeout-s", type=float, default=30.0,
                        help="how long to wait for the idle shrink")
    parser.add_argument("--hetero", action="store_true",
                        help="also run the pinned-vs-attach-everything "
                             "heterogeneous fleet comparison")
    parser.add_argument("--hetero-models", default="VGG16,MicroCNN",
                        help="big,small model pair for --hetero")
    parser.add_argument("--hetero-workers", type=int, default=3)
    parser.add_argument("--hetero-requests", type=int, default=24,
                        help="closed-loop requests per model in --hetero")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write records to PATH ('-' for stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer slices, small hetero pair")
    parser.add_argument("--require-absorb", action="store_true",
                        help="fail unless the spike shed, the fleet grew, "
                             "the steady-state shed rate returned to ~0 and "
                             "the idle fleet shrank back")
    parser.add_argument("--require-pinned-win", action="store_true",
                        help="fail unless the pinned fleet beats "
                             "attach-everything on per-worker attach bytes "
                             "(and records bit-identical outputs)")
    args = parser.parse_args(argv)

    if args.quick:
        args.spike_slices = min(args.spike_slices, 8)
        args.hetero_models = "TinyCNN,MicroCNN"
        args.hetero_requests = min(args.hetero_requests, 16)
    args.hetero_models = tuple(
        m.strip() for m in str(args.hetero_models).split(",") if m.strip()
    )
    if len(args.hetero_models) != 2:
        parser.error("--hetero-models takes exactly two models (big,small)")

    from repro.serving.loadgen import write_sweep_records

    records = spike_records(args)
    summary = records[-1]
    print(
        f"spike: capacity {summary['capacity_rps']} rps, "
        f"{summary['grow_events']} grow(s) to {summary['peak_workers']} "
        f"workers, absorb {summary['time_to_absorb_s']} s, steady shed "
        f"{summary['steady_shed_rate']:.1%}, shrink "
        f"{summary['time_to_shrink_s']} s, "
        f"bit_identical={summary['bit_identical']}"
    )
    if args.hetero:
        hetero = hetero_records(args)
        records.extend(hetero)
        for record in hetero:
            print(
                f"hetero[{record['variant']}] {record['model']}: "
                f"{record['req_per_s']} rps, startup {record['startup_s']} s, "
                f"attach bytes mean {record['attach_bytes_mean']} "
                f"(store {record['store_bytes']}), "
                f"bit_identical={record['bit_identical']}"
            )
    if args.json:
        print(write_sweep_records(records, args.json))

    failures = []
    if not all(r.get("bit_identical", True) for r in records):
        failures.append("outputs diverged from the single-process service")
    if args.require_absorb:
        spiked = sum(r["shed"] for r in records
                     if r["op"] == "autoscale_spike")
        if spiked == 0:
            failures.append("the spike never shed (nothing to absorb; "
                            "lower --max-outstanding or raise --spike-x)")
        if summary["grow_events"] == 0:
            failures.append("the autoscaler never grew")
        if summary["steady_shed_rate"] > 0.02:
            failures.append(
                f"steady-state shed rate {summary['steady_shed_rate']:.1%} "
                "did not return to ~0"
            )
        if summary["time_to_shrink_s"] is None:
            failures.append("the idle fleet never shrank back")
    if args.require_pinned_win and args.hetero:
        by_variant = {}
        for record in records:
            if record["op"] == "autoscale_hetero":
                by_variant[record["variant"]] = record
        pinned = by_variant["pinned"]
        everything = by_variant["attach_everything"]
        if pinned["attach_bytes_mean"] >= everything["attach_bytes_mean"]:
            failures.append("pinned fleet did not cut mean attach bytes")
        if pinned["store_bytes"] < 2**20:
            # Tiny stores warm in single-digit milliseconds; the timing
            # comparison is pure noise there (the smoke pair in --quick).
            print(
                f"SKIP warm-time gate: store is {pinned['store_bytes']} "
                "bytes (< 1 MiB); run with a big model (e.g. VGG16) to "
                "make worker warm time measurable",
                file=sys.stderr,
            )
        elif pinned["ready_ms_max"] >= everything["ready_ms_max"]:
            failures.append("pinned fleet did not cut worker warm time")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
