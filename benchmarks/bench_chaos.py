"""Chaos benchmark: goodput and tail latency under seeded fault injection.

Runs the same sustained open-loop load through a retry+quarantine-enabled
cluster once fault-free (the control) and once per fault class, each with
a deterministic :class:`~repro.serving.faults.FaultPlan` seeded so the
whole trajectory is replayable.  One record per scenario:

    {op: "chaos", model, shape, scenario, seed, req_per_s, p99_ms,
     offered, completed, shed, deadline_expired, failed, retries, hedges,
     quarantined, respawns, requeued, faults_fired, goodput_vs_baseline,
     host_cpus, bit_identical}

``req_per_s`` is *goodput* — completed requests over wall time; every
completed output is verified bit-identical to a fault-free single-process
baseline over the same images, so a resilience number can never hide a
correctness drift.  The fault horizon is derived from the offered load
(``requests / rps``) so scheduled faults (crash/stall/partition) land
while requests are in flight, not after the run drained.

Usage:

    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --json benchmarks/BENCH_chaos.json
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick \
        --require-goodput 0.2 --require-complete --json -
"""

import argparse
import sys

#: scenario name -> fault spec (None = fault-free control).
SCENARIOS = (
    ("baseline", None),
    ("delay", "delay"),
    ("drop", "drop"),
    ("duplicate", "duplicate"),
    ("stall", "stall"),
    ("crash", "crash"),
    ("partition", "partition"),
    ("mixed", "crash,stall,partition,delay"),
)

QUICK_SCENARIOS = ("baseline", "delay", "mixed")


def run_scenario(args, name: str, spec) -> dict:
    from repro.models.zoo import get_serving_config
    from repro.serving.cluster import RetryPolicy, usable_cpus
    from repro.serving.faults import FaultPlan
    from repro.serving.loadgen import run_chaos_scenario

    shape = get_serving_config(args.model).input_shape
    # Scheduled faults land in [0.15, 0.85] * horizon; anchoring the
    # horizon to the offered duration keeps them inside the load window.
    horizon_s = max(0.5, args.requests / args.rps)
    plan = (None if spec is None
            else FaultPlan.from_seed(args.seed, spec, horizon_s=horizon_s))
    result = run_chaos_scenario(
        plan,
        model=args.model,
        workers=args.workers,
        requests=args.requests,
        offered_rps=args.rps,
        deadline_s=args.deadline_s,
        seed=args.seed,
        # Deep retry budget + hedging on: the bench measures recovery, so
        # give the control loop room before a request fails terminally
        # (a drop rule can eat several attempts of the same request).
        retry=RetryPolicy(max_attempts=6, hedge=True),
        max_batch_size=args.batch,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=args.heartbeat_timeout_s,
    )
    return {
        "op": "chaos",
        "model": args.model,
        "shape": list(shape),
        "scenario": name,
        "seed": args.seed,
        "req_per_s": round(result.ledger.goodput_rps, 2),
        "p99_ms": round(result.p99_ms, 2),
        "offered": result.ledger.offered,
        "completed": result.ledger.completed,
        "shed": result.ledger.shed,
        "deadline_expired": result.ledger.deadline_expired,
        "failed": result.ledger.failed,
        "retries": result.retries,
        "hedges": result.hedges,
        "quarantined": result.quarantined,
        "respawns": result.respawns,
        "requeued": result.requeued,
        "faults_fired": len(result.fault_events),
        "host_cpus": usable_cpus(),
        "bit_identical": result.bit_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="MicroCNN",
                        help="serving-zoo model under chaos")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--requests", type=int, default=96,
                        help="offered requests per scenario")
    parser.add_argument("--rps", type=float, default=150.0,
                        help="offered Poisson arrival rate")
    parser.add_argument("--batch", type=int, default=16,
                        help="per-worker micro-batch bound")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="optional end-to-end per-request deadline")
    parser.add_argument("--heartbeat-timeout-s", type=float, default=1.0,
                        help="crash/stall detection bound (short on purpose "
                             "so recovery fits the bench window)")
    parser.add_argument("--seed", type=int, default=42,
                        help="fault-plan and arrival seed (same seed → "
                             "same fault schedule)")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated subset of scenario names "
                             f"(default: all of "
                             f"{','.join(n for n, _ in SCENARIOS)})")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write records to PATH ('-' for stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: baseline + delay + mixed only, "
                             "fewer requests")
    parser.add_argument("--require-goodput", type=float, default=None,
                        metavar="FRAC",
                        help="fail if any fault scenario's goodput drops "
                             "below FRAC × the fault-free baseline")
    parser.add_argument("--require-complete", action="store_true",
                        help="fail unless every scenario accounts for all "
                             "offered requests with zero terminal failures")
    args = parser.parse_args(argv)

    if args.quick:
        args.requests = min(args.requests, 64)
    wanted = (QUICK_SCENARIOS if args.quick and args.scenarios is None
              else tuple(s.strip() for s in args.scenarios.split(","))
              if args.scenarios else tuple(n for n, _ in SCENARIOS))
    by_name = dict(SCENARIOS)
    unknown = sorted(set(wanted) - set(by_name))
    if unknown:
        parser.error(f"unknown scenarios {unknown}; "
                     f"expected among {sorted(by_name)}")

    from repro.serving.loadgen import write_sweep_records

    records = []
    baseline_rps = None
    for name in wanted:
        record = run_scenario(args, name, by_name[name])
        if name == "baseline":
            baseline_rps = record["req_per_s"]
        if baseline_rps:
            record["goodput_vs_baseline"] = round(
                record["req_per_s"] / baseline_rps, 3)
        records.append(record)
        print(
            f"{name:<10s} goodput {record['req_per_s']:8.1f} rps  "
            f"p99 {record['p99_ms']:7.1f} ms  "
            f"completed {record['completed']}/{record['offered']}  "
            f"retries {record['retries']}  hedges {record['hedges']}  "
            f"quarantined {record['quarantined']}  "
            f"respawns {record['respawns']}  "
            f"faults {record['faults_fired']}  "
            f"bit_identical={record['bit_identical']}"
        )
    if args.json:
        print(write_sweep_records(records, args.json))

    failures = []
    for record in records:
        if not record["bit_identical"]:
            failures.append(f"{record['scenario']}: completed outputs "
                            "diverged from the fault-free baseline")
        if args.require_complete:
            if record["failed"]:
                failures.append(f"{record['scenario']}: "
                                f"{record['failed']} terminal failure(s)")
            if record["completed"] + record["shed"] \
                    + record["deadline_expired"] != record["offered"]:
                failures.append(f"{record['scenario']}: request accounting "
                                "does not cover the offered load")
    if args.require_goodput is not None and baseline_rps:
        for record in records:
            if record["scenario"] == "baseline":
                continue
            floor = args.require_goodput * baseline_rps
            if record["req_per_s"] < floor:
                failures.append(
                    f"{record['scenario']}: goodput {record['req_per_s']} "
                    f"rps below {args.require_goodput:.0%} of the "
                    f"fault-free baseline ({baseline_rps} rps)"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
