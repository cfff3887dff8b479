"""Synthetic load generation against the inference service.

Two traffic shapes:

* **closed loop** (:func:`run_closed_loop`) — submit a burst of requests
  back-to-back and wait for all of them; measures peak sustainable
  throughput at a given offered batch level.
* **open loop** (:func:`run_open_loop`) — submit requests on a Poisson
  arrival process at a target rate regardless of completions; measures
  latency under a fixed offered load, the way real traffic behaves.

Against a cluster, every open-loop load shape — flat shedding, phased
spikes, chaos, live rollout and multi-tenant scenarios
(:mod:`repro.serving.scenarios`) — is one call to
:func:`drive_open_loop` with its own arrival schedule.  It submits with
non-blocking admission and writes the outcome of every offered request
into one :class:`RequestLedger`.  The ledger then compares completed rows
with the single-process baseline.

:func:`throughput_sweep` drives the closed loop across several offered
batch levels and compares each against the per-request ``engine.run``
baseline — the exact path a client would hit without the serving layer.
Every sweep point also verifies bit-identical outputs between the scheduled
micro-batches and unbatched execution, so the speedup is never bought with
a correctness drift.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_kv, format_table
from repro.core.engine import PhoneBitEngine
from repro.serving.pool import ModelPool
from repro.serving.service import InferenceService, ServiceReport

__all__ = [
    "ChaosResult",
    "LoadgenResult",
    "RequestLedger",
    "RolloutDrillResult",
    "await_rollout",
    "baseline_outputs",
    "drive_open_loop",
    "phased_poisson_offsets",
    "poisson_offsets",
    "rollout_trigger",
    "run_arrival_schedule",
    "run_chaos_scenario",
    "run_closed_loop",
    "run_open_loop",
    "run_open_loop_shedding",
    "run_rollout_drill",
    "run_spike_load",
    "sequential_baseline",
    "sequential_forward_baseline",
    "sweep_table",
    "synthetic_images",
    "throughput_sweep",
    "write_sweep_records",
]


# ---------------------------------------------------------------------------
# arrival schedules — the one schedule-driven core every open-loop load
# shape rides on.  A schedule is a pure function of its rng (never of the
# wall clock), so the same seed always yields a byte-identical arrival
# sequence; the pacing driver then walks the wall clock through it.
# ---------------------------------------------------------------------------

def poisson_offsets(rng: np.random.Generator, offered_rps: float,
                    count: int) -> np.ndarray:
    """Cumulative Poisson arrival offsets (seconds from the run start).

    One vectorized ``exponential`` draw of ``count`` gaps — the exact
    draw the flat open-loop generators have always made, so existing
    seeded schedules stay byte-identical (pinned by
    ``tests/test_scenarios.py``).
    """
    if offered_rps <= 0:
        raise ValueError("offered_rps must be positive")
    return np.cumsum(rng.exponential(1.0 / offered_rps, size=count))


def phased_poisson_offsets(rng: np.random.Generator,
                           phases: Sequence[tuple]) -> tuple:
    """Piecewise-constant-rate Poisson schedule for ``(name, rps, dur)``
    phases: ``(offsets, phase_index)`` arrays.

    Gaps are drawn one at a time — draw-for-draw identical to the
    historical spike loop, including the final draw of each phase that
    lands past the phase end and is discarded — so seeded spike
    schedules are byte-identical to the pre-refactor ones.
    """
    offsets: List[float] = []
    phase_index: List[int] = []
    position = 0.0
    for number, (_, offered_rps, duration_s) in enumerate(phases):
        if offered_rps <= 0:
            raise ValueError("offered_rps must be positive in every phase")
        phase_end = position + float(duration_s)
        while True:
            position += rng.exponential(1.0 / offered_rps)
            if position >= phase_end:
                position = phase_end
                break
            offsets.append(position)
            phase_index.append(number)
    return (np.asarray(offsets, dtype=np.float64),
            np.asarray(phase_index, dtype=np.int64))


def run_arrival_schedule(offsets: Sequence[float], arrive,
                         t0: Optional[float] = None) -> float:
    """Pace the wall clock through a precomputed arrival schedule.

    Sleeps until ``t0 + offsets[i]`` then calls ``arrive(i)`` for each
    arrival, never stalling the clock on slow submissions — the open-loop
    contract.  Returns ``t0`` so callers measure wall time and drain
    budgets from the same origin the schedule used.
    """
    if t0 is None:
        t0 = time.perf_counter()
    for index in range(len(offsets)):
        delay = t0 + float(offsets[index]) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        arrive(index)
    return t0


def sweep_table(records: Sequence[dict], title: Optional[str] = None) -> str:
    """Render :func:`throughput_sweep` records as an aligned table.

    Single rendering path shared by ``repro.cli serve-bench`` and
    ``benchmarks/bench_serving_throughput.py`` so the two cannot drift when
    the record schema changes.
    """
    return format_table(
        ["offered batch", "req/s", "seq req/s", "fwd req/s", "speedup",
         "p50 (ms)", "p99 (ms)", "mean batch"],
        [
            [r["offered_batch"], r["requests_per_s"], r["sequential_rps"],
             r["sequential_forward_rps"],
             f"{r['speedup_vs_sequential']:.2f}x",
             r["latency_p50_ms"], r["latency_p99_ms"], r["mean_batch_size"]]
            for r in records
        ],
        title=title,
    )


def write_sweep_records(records: Sequence[dict], path: str) -> str:
    """Write sweep records as ``{"records": ...}`` JSON.

    ``path`` of ``"-"`` returns the payload instead of writing a file; any
    other path is written and a ``wrote <path>`` note is returned.
    """
    import json

    payload = json.dumps({"records": list(records)}, indent=2)
    if path == "-":
        return payload
    with open(path, "w") as fh:
        fh.write(payload + "\n")
    return f"wrote {path}"


def synthetic_images(input_shape: Sequence[int], count: int, seed: int = 0,
                     unique: bool = True) -> np.ndarray:
    """Random uint8 request images of shape ``(count,) + input_shape``.

    With ``unique=False`` a smaller set of distinct images is tiled, which
    gives the response cache something to hit.
    """
    rng = np.random.default_rng(seed)
    if unique:
        return rng.integers(0, 256, size=(count, *input_shape)).astype(np.uint8)
    distinct = max(1, count // 4)
    base = rng.integers(0, 256, size=(distinct, *input_shape)).astype(np.uint8)
    reps = -(-count // distinct)
    return np.tile(base, (reps,) + (1,) * len(input_shape))[:count]


@dataclass(frozen=True)
class LoadgenResult:
    """Outcome of one load-generation run."""

    report: ServiceReport
    wall_s: float
    offered_rps: Optional[float]  #: None for closed-loop runs
    outputs: Optional[np.ndarray] = None

    @property
    def achieved_rps(self) -> float:
        if self.wall_s <= 0:
            return float("inf") if self.report.requests else 0.0
        return self.report.requests / self.wall_s

    def table(self) -> str:
        rows = [
            ("offered load", "closed loop" if self.offered_rps is None
             else f"{self.offered_rps:.1f} req/s"),
            ("achieved (req/s)", self.achieved_rps),
            ("wall time (s)", self.wall_s),
        ]
        return "\n".join([format_kv(rows, title="Load generation"),
                          "", self.report.table()])


def run_closed_loop(
    service: InferenceService, model: str, images: np.ndarray
) -> LoadgenResult:
    """Submit every image back-to-back, then wait for all responses."""
    t0 = time.perf_counter()
    futures = service.submit_batch(model, images)
    outputs = np.stack([future.result() for future in futures])
    wall_s = time.perf_counter() - t0
    return LoadgenResult(
        report=service.report(model),
        wall_s=wall_s,
        offered_rps=None,
        outputs=outputs,
    )


def run_open_loop(
    service: InferenceService,
    model: str,
    images: np.ndarray,
    offered_rps: float,
    seed: int = 0,
) -> LoadgenResult:
    """Submit requests on a Poisson arrival process at ``offered_rps``."""
    rng = np.random.default_rng(seed)
    offsets = poisson_offsets(rng, offered_rps, len(images))
    futures: List = []

    def arrive(index: int) -> None:
        futures.append(service.submit(model, images[index]))

    t0 = run_arrival_schedule(offsets, arrive)
    outputs = np.stack([future.result() for future in futures])
    wall_s = time.perf_counter() - t0
    return LoadgenResult(
        report=service.report(model),
        wall_s=wall_s,
        offered_rps=offered_rps,
        outputs=outputs,
    )


# ---------------------------------------------------------------------------
# the open-loop driver every cluster load shape rides on, and its ledger
# ---------------------------------------------------------------------------

#: Drain budget, in seconds from the first arrival: a future still
#: unresolved past it is a *hung future* and the run raises.
DRAIN_TIMEOUT_S = 60.0

#: After the drain, how long a driver waits for a live rollout to reach a
#: terminal phase (the monitor thread keeps ticking it meanwhile).
ROLLOUT_TERMINAL_WAIT_S = 15.0


class RequestLedger:
    """Where every offered request of an open-loop run ended up.

    One entry per offered request, in arrival order: a ``(group, outcome,
    key, row, latency_s, retry_after_s)`` tuple.  ``group`` is a phase or
    tenant name, or ``None`` for an ungrouped run; ``outcome`` is exactly
    one of ``completed``, ``shed``, ``deadline_expired`` or ``failed``.
    A completed request keeps the image it used — ``key`` is ``(model,
    image_index)`` — with its output row and its submit→done latency; a
    shed keeps the router's suggested retry-after.
    One outcome per entry makes ``offered == completed + shed +
    deadline_expired + failed`` hold by construction, for the whole
    ledger and for every :meth:`group`.
    """

    def __init__(self, entries: Sequence[tuple] = (),
                 wall_s: float = 0.0) -> None:
        self.entries = list(entries)
        self.wall_s = wall_s

    @property
    def groups(self) -> tuple:
        """Group names, in order of first arrival."""
        return tuple(dict.fromkeys(entry[0] for entry in self.entries))

    def group(self, name) -> "RequestLedger":
        """One group's ledger over the same wall time (empty when the
        group had no arrivals)."""
        return RequestLedger([e for e in self.entries if e[0] == name],
                             self.wall_s)

    def _count(self, outcome: str) -> int:
        return sum(1 for entry in self.entries if entry[1] == outcome)

    @property
    def offered(self) -> int:
        return len(self.entries)

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def shed(self) -> int:
        return self._count("shed")

    @property
    def deadline_expired(self) -> int:
        return self._count("deadline_expired")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def goodput_rps(self) -> float:
        if self.wall_s <= 0:
            return float("inf") if self.completed else 0.0
        return self.completed / self.wall_s

    @property
    def retry_after_ms_mean(self) -> float:
        waits = [e[5] for e in self.entries if e[1] == "shed"]
        return 1000.0 * sum(waits) / len(waits) if waits else 0.0

    @property
    def latencies_s(self) -> List[float]:
        """Submit→done latency of every completed request."""
        return [e[4] for e in self.entries if e[1] == "completed"]

    def bit_identical(self, expected: Mapping[str, np.ndarray]) -> bool:
        """True when every completed row equals ``expected[model][index]``
        — ``expected`` maps each model to its baseline rows
        (:func:`baseline_outputs`)."""
        return all(np.array_equal(row, expected[key[0]][key[1]])
                   for _, outcome, key, row, _, _ in self.entries
                   if outcome == "completed")

    def summary_rows(self) -> List[tuple]:
        """Accounting rows for :func:`~repro.analysis.reporting.format_kv`."""
        return [
            ("offered", self.offered),
            ("completed", self.completed),
            ("shed", self.shed),
            ("deadline expired", self.deadline_expired),
            ("failed", self.failed),
            ("goodput (req/s)", self.goodput_rps),
        ]

    def table(self, title: str = "Open loop") -> str:
        """Per-group accounting table."""
        rows = []
        for name in self.groups:
            group = self.group(name)
            rows.append([name, group.offered, group.completed, group.shed,
                         group.deadline_expired, group.failed,
                         f"{100.0 * group.shed_rate:.1f}"])
        return format_table(
            ["group", "offered", "done", "shed", "expired", "fail", "shed %"],
            rows, title=title)


def drive_open_loop(cluster, offsets: Sequence[float], arrival, *,
                    deadline_s: Optional[float] = None,
                    on_arrival=None) -> RequestLedger:
    """Drive one open-loop run through a cluster and account for it.

    Paces ``offsets`` with :func:`run_arrival_schedule`; at arrival ``i``
    calls ``on_arrival(i)`` (a mid-run publish, say), then
    ``arrival(i)``, which returns ``(group, model, image_index, image,
    slo)``, and submits that image with non-blocking admission and the
    end-to-end ``deadline_s``.  An overload shed, an expired deadline and
    a fleet that cannot serve (:class:`~repro.serving.cluster
    .WorkerCrashError`) are counted the same whether they surface at
    submission or on the drained future.  A future still unresolved
    :data:`DRAIN_TIMEOUT_S` after the first arrival raises
    :class:`RuntimeError` — silent loss never reports as success.
    """
    from repro.serving.cluster import (
        ClusterOverloadError,
        DeadlineExceededError,
        WorkerCrashError,
    )

    accounted = (ClusterOverloadError, DeadlineExceededError,
                 WorkerCrashError)

    def outcome_of(exc: Exception) -> str:
        if isinstance(exc, ClusterOverloadError):
            return "shed"
        if isinstance(exc, DeadlineExceededError):
            return "deadline_expired"
        return "failed"

    entries: list = [None] * len(offsets)
    pending: list = []
    done_at: dict = {}

    def arrive(index: int) -> None:
        if on_arrival is not None:
            on_arrival(index)
        group, model, image_index, image, slo = arrival(index)
        submitted = time.perf_counter()
        try:
            future = cluster.submit(model, image, block=False,
                                    timeout=deadline_s, slo=slo)
        except accounted as exc:
            entries[index] = (group, outcome_of(exc), None, None, 0.0,
                              getattr(exc, "retry_after_s", 0.0))
            return
        future.add_done_callback(lambda _f, key=index: done_at.__setitem__(
            key, time.perf_counter()))
        pending.append((index, group, (model, image_index), submitted, future))

    t0 = run_arrival_schedule(offsets, arrive)
    for index, group, key, submitted, future in pending:
        budget_s = DRAIN_TIMEOUT_S - (time.perf_counter() - t0)
        try:
            row = future.result(timeout=max(1.0, budget_s))
        except accounted as exc:
            entries[index] = (group, outcome_of(exc), None, None, 0.0, 0.0)
            continue
        except FuturesTimeoutError:
            raise RuntimeError(
                f"hung future: arrival {index} unresolved "
                f"{DRAIN_TIMEOUT_S:.0f}s into the run — the cluster lost "
                "track of admitted work"
            )
        latency_s = done_at.get(index, time.perf_counter()) - submitted
        entries[index] = (group, "completed", key, row, latency_s, 0.0)
    return RequestLedger(entries, time.perf_counter() - t0)


def baseline_outputs(cluster, images: Mapping[str, np.ndarray]
                     ) -> Dict[str, np.ndarray]:
    """Fault-free single-process rows for ``{model: images}``, served from
    the artifacts the cluster publishes — what
    :meth:`RequestLedger.bit_identical` compares against."""
    baseline = cluster.baseline_service()
    try:
        return {model: run_closed_loop(baseline, model, batch).outputs
                for model, batch in images.items()}
    finally:
        baseline.close()


def rollout_trigger(cluster, model: str, network, rollout, at: float,
                    count: int, operator_rollback: bool = False):
    """``on_arrival`` hook publishing ``network`` once the arrival cursor
    crosses the fraction ``at`` of ``count`` arrivals; with
    ``operator_rollback`` it also aborts the rollout by hand midway
    through the remaining arrivals."""
    publish_index = min(count - 1, int(at * count))
    rollback_index = min(count - 1,
                         publish_index + max(1, (count - publish_index) // 2))

    def on_arrival(index: int) -> None:
        if index == publish_index:
            cluster.publish(network, model=model, rollout=rollout)
        if operator_rollback and index == rollback_index:
            try:
                cluster.rollback(model, reason="drill operator rollback")
            except (KeyError, RuntimeError):
                pass  # already terminal — nothing to abort

    return on_arrival


def await_rollout(cluster, model: str) -> Optional[dict]:
    """Status of ``model``'s newest rollout once it is terminal, or after
    :data:`ROLLOUT_TERMINAL_WAIT_S`; ``None`` if it never rolled out."""
    deadline = time.perf_counter() + ROLLOUT_TERMINAL_WAIT_S
    while True:
        statuses = cluster.rollout_status(model)
        status = statuses[0] if statuses else None
        if (status is None or status["phase"] in ("committed", "rolled_back")
                or time.perf_counter() >= deadline):
            return status
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# the drivers: each supplies an arrival schedule and its own extras
# ---------------------------------------------------------------------------

def run_open_loop_shedding(
    cluster,
    model: str,
    images: np.ndarray,
    offered_rps: float,
    seed: int = 0,
    slo: Optional[str] = None,
) -> RequestLedger:
    """Open-loop Poisson arrivals with *non-blocking* admission.

    :func:`run_open_loop` backpressures the arrival process when the
    service saturates, which hides overload behaviour.  This variant is
    how real open-loop traffic meets an admission-controlled front end:
    an overload shed is *counted* — along with the router's suggested
    retry-after — and the arrival clock never stalls.  Cluster-only: the
    single-process service has no non-blocking admission surface.
    ``slo`` tags every arrival with one SLO class for the router's tiered
    admission.  Arrival ``i`` uses ``images[i]``; the ledger is ungrouped.
    """
    offsets = poisson_offsets(np.random.default_rng(seed), offered_rps,
                              len(images))
    return drive_open_loop(
        cluster, offsets, lambda i: (None, model, i, images[i], slo))


def run_spike_load(
    cluster,
    model: str,
    images: np.ndarray,
    phases: Sequence[tuple],
    seed: int = 0,
) -> RequestLedger:
    """Phased non-blocking open loop: baseline → spike → baseline.

    ``phases`` is a sequence of ``(name, offered_rps, duration_s)``;
    arrivals are Poisson within each phase — exactly
    :func:`run_open_loop_shedding` with a piecewise-constant offered
    rate.  This is the traffic shape the autoscaler is judged on: a spike
    phase that sheds should trigger growth, and the recovery phase's shed
    rate shows whether the grown fleet absorbed the load.  The ledger is
    grouped by phase name (phases sharing a name share a group), and
    ``images`` are cycled over arrivals.
    """
    offsets, phase_index = phased_poisson_offsets(np.random.default_rng(seed),
                                                  phases)
    names = [name for name, _, _ in phases]

    def arrival(i: int) -> tuple:
        index = i % len(images)
        return names[phase_index[i]], model, index, images[index], None

    return drive_open_loop(cluster, offsets, arrival)


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one fault-injected load run (:func:`run_chaos_scenario`).

    The ledger accounts for every offered request; ``bit_identical``
    compares every completed row with the fault-free baseline.
    """

    ledger: RequestLedger
    bit_identical: bool
    retries: int
    hedges: int
    quarantined: int
    respawns: int
    requeued: int
    p99_ms: float
    #: Faults the plan actually fired, in firing order
    #: (:class:`~repro.serving.faults.FaultEvent` tuples).
    fault_events: tuple
    #: The plan's deterministic schedule, for same-seed replay checks.
    schedule: tuple

    def table(self) -> str:
        rows = self.ledger.summary_rows() + [
            ("latency p99 (ms)", self.p99_ms),
            ("retries", self.retries),
            ("hedges", self.hedges),
            ("quarantined", self.quarantined),
            ("respawns", self.respawns),
            ("requeued", self.requeued),
            ("faults fired", len(self.fault_events)),
            ("bit identical", self.bit_identical),
            ("wall time (s)", self.ledger.wall_s),
        ]
        lines = [format_kv(rows, title="Chaos scenario")]
        if self.fault_events:
            lines.append("")
            lines.append("fault timeline:")
            for event in self.fault_events:
                lines.append(f"  t={event.at_s:6.3f}s  {event.kind:<10s} "
                             f"{event.target}")
        return "\n".join(lines)


def run_chaos_scenario(
    plan,
    model: str = "MicroCNN",
    workers: int = 3,
    requests: int = 96,
    offered_rps: float = 150.0,
    deadline_s: Optional[float] = None,
    seed: int = 0,
    retry=None,
    quarantine=None,
    **cluster_kwargs,
) -> ChaosResult:
    """Drive sustained open-loop load through a fault-injected cluster.

    Builds a :class:`~repro.serving.cluster.ClusterService` with ``plan``
    armed (plus retry/hedging and quarantine policies — defaults are used
    when not given), offers ``requests`` Poisson arrivals at
    ``offered_rps`` through :func:`drive_open_loop` with an optional
    end-to-end ``deadline_s``, and compares every completed row with a
    fault-free single-process baseline over the same images.

    The same ``plan`` seed reproduces the same fault schedule, so a chaos
    failure is a unit test away from being replayed.  ``plan=None`` runs
    the identical scenario fault-free — the control every chaos benchmark
    compares goodput and tail latency against.
    """
    from repro.serving.cluster import ClusterService, RetryPolicy
    from repro.serving.router import QuarantinePolicy

    if requests <= 0:
        raise ValueError("requests must be positive")
    offsets = poisson_offsets(np.random.default_rng(seed), offered_rps,
                              requests)
    images = synthetic_images(ModelPool().get(model).input_shape, requests,
                              seed=seed)
    schedule = () if plan is None else tuple(plan.schedule())

    cluster_kwargs.setdefault("models", (model,))
    cluster = ClusterService(
        workers=workers,
        retry=RetryPolicy() if retry is None else retry,
        quarantine=QuarantinePolicy() if quarantine is None else quarantine,
        faults=plan,
        **cluster_kwargs,
    )
    try:
        ledger = drive_open_loop(
            cluster, offsets, lambda i: (None, model, i, images[i], None),
            deadline_s=deadline_s)
        fault_events = tuple(cluster.fault_events)
        detail = cluster.cluster_report()
        expected = baseline_outputs(cluster, {model: images})
    finally:
        cluster.close()
    served = detail.aggregated.get(model)
    return ChaosResult(
        ledger=ledger,
        bit_identical=ledger.bit_identical(expected),
        retries=detail.retries,
        hedges=detail.hedges,
        quarantined=detail.quarantined,
        respawns=detail.respawns,
        requeued=detail.requeued,
        p99_ms=served.latency.p99_ms if served is not None else 0.0,
        fault_events=fault_events,
        schedule=schedule,
    )


@dataclass(frozen=True)
class RolloutDrillResult:
    """Outcome of one live-rollout drill (:func:`run_rollout_drill`).

    ``phase`` is the rollout's final phase; a drill that never reaches a
    terminal phase within :data:`ROLLOUT_TERMINAL_WAIT_S` reports the
    live phase it was left in.
    """

    ledger: RequestLedger
    bit_identical: bool
    #: Final rollout phase (``committed`` / ``rolled_back`` / live phase).
    phase: str
    rollback_reason: Optional[str]
    old_digest: str
    new_digest: str
    #: Canary comparison accounting (``samples`` / ``mismatches`` / means).
    canary: dict
    #: JSON-stable rollout event records (``RolloutEvent.as_record``).
    timeline: tuple

    def table(self) -> str:
        rows = [
            ("old digest", self.old_digest[:16] + "..."),
            ("new digest", self.new_digest[:16] + "..."),
            ("final phase", self.phase),
            ("rollback reason", self.rollback_reason or "-"),
        ] + self.ledger.summary_rows() + [
            ("canary samples", self.canary.get("samples", 0)),
            ("canary mismatches", self.canary.get("mismatches", 0)),
            ("bit identical", self.bit_identical),
            ("wall time (s)", self.ledger.wall_s),
        ]
        lines = [format_kv(rows, title="Live rollout drill")]
        if self.timeline:
            lines.append("")
            lines.append("rollout timeline:")
            for event in self.timeline:
                lines.append(
                    f"  t={event['t_s']:7.3f}s  {event['phase']:<11s} "
                    f"{event['kind']:<15s} {event['detail']}")
        return "\n".join(lines)


def run_rollout_drill(
    model: str = "MicroCNN",
    workers: int = 2,
    requests: int = 192,
    offered_rps: float = 250.0,
    seed: int = 0,
    divergent: bool = False,
    operator_rollback: bool = False,
    publish_at: float = 0.25,
    rollout=None,
    **cluster_kwargs,
) -> RolloutDrillResult:
    """Drive a live rollout under sustained open-loop load, end to end.

    Builds a cluster serving ``model``, offers ``requests`` Poisson
    arrivals at ``offered_rps`` through :func:`drive_open_loop`, and —
    once the arrival cursor crosses ``publish_at`` (a fraction of the
    schedule) — publishes a v2 artifact and lets the canary → promote →
    commit sequence ride the drill's own traffic:

    * the default v2 is the serving network stamped with new release
      metadata: byte-distinct digest, bit-identical outputs — it must
      canary cleanly and commit with **zero shed and zero lost
      requests**;
    * ``divergent=True`` publishes a genuinely different network
      (fresh weights), which must auto-roll back on the first mismatch
      while every client answer keeps coming from the stable digest;
    * ``operator_rollback=True`` aborts the rollout by hand midway
      through the remaining schedule, exercising the ``rollback`` CLI
      path.

    Every completed output is verified bit-identical to a fault-free
    single-process baseline over the same images (served by whichever
    digest ended up active — both are output-identical unless the drill
    was divergent, in which case the divergent artifact must never have
    served a client answer).
    """
    from repro.models.zoo import build_phonebit_network, get_serving_config
    from repro.serving.cluster import ClusterService, RetryPolicy

    if requests <= 0:
        raise ValueError("requests must be positive")
    if not 0.0 <= publish_at <= 1.0:
        raise ValueError("publish_at must be in [0, 1]")
    config = get_serving_config(model)
    images = synthetic_images(config.input_shape, requests, seed=seed)
    # The candidate artifact: fresh weights when divergent (the canary
    # must catch it), otherwise the serving network stamped so only the
    # serialized bytes — and therefore the digest — change.
    if divergent:
        v2 = build_phonebit_network(config, rng=7 + seed)
        v2.metadata["release"] = "drill-divergent"
    else:
        v2 = build_phonebit_network(config)
        v2.metadata["release"] = "drill-v2"
    offsets = poisson_offsets(np.random.default_rng(seed), offered_rps,
                              requests)

    cluster_kwargs.setdefault("models", (model,))
    cluster_kwargs.setdefault("retry", RetryPolicy())
    cluster = ClusterService(workers=workers, **cluster_kwargs)
    try:
        ledger = drive_open_loop(
            cluster, offsets, lambda i: (None, model, i, images[i], None),
            on_arrival=rollout_trigger(cluster, model, v2, rollout,
                                       publish_at, requests,
                                       operator_rollback=operator_rollback))
        status = await_rollout(cluster, model)
        timeline = tuple(cluster.rollout_timeline(model))
        expected = baseline_outputs(cluster, {model: images})
    finally:
        cluster.close()
    return RolloutDrillResult(
        ledger=ledger,
        bit_identical=ledger.bit_identical(expected),
        phase=str(status["phase"]),
        rollback_reason=status["rollback_reason"],
        old_digest=str(status["old_digest"]),
        new_digest=str(status["new_digest"]),
        canary=dict(status["canary"]),
        timeline=timeline,
    )


def sequential_baseline(
    engine: PhoneBitEngine, network, images: np.ndarray
) -> tuple:
    """Per-request ``engine.run`` over ``images``: (outputs, wall_s).

    This is the pre-serving client path exactly as shipped — including the
    per-request simulated cost estimate ``engine.run`` always computes.
    """
    outputs = []
    t0 = time.perf_counter()
    for i in range(images.shape[0]):
        outputs.append(engine.run(network, images[i:i + 1]).output.data[0])
    wall_s = time.perf_counter() - t0
    return np.stack(outputs), wall_s


def sequential_forward_baseline(
    engine: PhoneBitEngine, network, images: np.ndarray
) -> float:
    """Wall seconds for per-request execution *without* the cost estimate.

    Reported alongside the ``engine.run`` baseline so the benchmark records
    separate how much of the serving speedup comes from micro-batching the
    kernels versus from not re-running the cost model per request.
    """
    t0 = time.perf_counter()
    for i in range(images.shape[0]):
        engine.run_batch(network, images[i:i + 1], collect_estimate=False)
    return time.perf_counter() - t0


def throughput_sweep(
    model: str = "MicroCNN",
    offered_batches: Sequence[int] = (1, 4, 16, 64),
    requests_per_level: int = 64,
    max_wait_ms: float = 2.0,
    seed: int = 0,
    engine: Optional[PhoneBitEngine] = None,
    pool: Optional[ModelPool] = None,
    chunk_bytes: Optional[int] = None,
) -> List[dict]:
    """Closed-loop serving throughput vs the sequential baseline.

    For each offered batch level ``b`` a fresh service is configured with
    ``max_batch_size=b`` and fed ``requests_per_level`` requests
    back-to-back; the same images then run through per-request
    ``engine.run`` calls for the baseline.  Outputs are checked
    bit-identical before anything is recorded.
    """
    engine = engine or PhoneBitEngine()
    pool = pool or ModelPool()
    network = pool.get(model)
    images = synthetic_images(network.input_shape, requests_per_level, seed=seed)

    # One warm pass (weight packing, NumPy internals) outside all timings.
    engine.run_batch(network, images[:2], collect_estimate=False)
    baseline_out, baseline_s = sequential_baseline(engine, network, images)
    baseline_rps = images.shape[0] / baseline_s if baseline_s > 0 else float("inf")
    forward_s = sequential_forward_baseline(engine, network, images)
    forward_rps = images.shape[0] / forward_s if forward_s > 0 else float("inf")

    records: List[dict] = []
    for offered in offered_batches:
        service = InferenceService(
            pool=pool,
            engine=engine,
            max_batch_size=int(offered),
            max_wait_ms=max_wait_ms,
            cache_capacity=0,  # throughput measurements must not hit the cache
            chunk_bytes=chunk_bytes,
        )
        try:
            result = run_closed_loop(service, model, images)
        finally:
            service.close()
        if not np.array_equal(result.outputs, baseline_out):
            raise AssertionError(
                f"serving outputs diverged from unbatched execution at "
                f"offered batch {offered}"
            )
        report = result.report
        records.append(
            {
                "op": "serving_throughput",
                "model": model,
                "offered_batch": int(offered),
                # Canonical trajectory aliases (tools/check_bench_schema.py):
                # every BENCH record carries {op|model, shape|batch,
                # ns_per_op|req_per_s} under exactly those key spellings.
                "batch": int(offered),
                "req_per_s": result.achieved_rps,
                "requests": int(images.shape[0]),
                "requests_per_s": result.achieved_rps,
                "sequential_rps": baseline_rps,
                "sequential_forward_rps": forward_rps,
                "speedup_vs_sequential": (
                    result.achieved_rps / baseline_rps if baseline_rps else float("inf")
                ),
                "speedup_vs_forward_only": (
                    result.achieved_rps / forward_rps if forward_rps else float("inf")
                ),
                "latency_p50_ms": report.latency.p50_ms,
                "latency_p99_ms": report.latency.p99_ms,
                "mean_batch_size": report.scheduler.mean_batch_size,
                "batches": report.scheduler.batch_count,
                "bit_identical": True,
            }
        )
    return records
