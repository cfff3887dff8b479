"""Fault-injection plane, end-to-end deadlines, retry/hedging and
slow-worker quarantine.

The unit layers pin the deterministic contracts (a plan's schedule and
frame-decision sequence are pure functions of the seed; quarantine and
probation are pure functions of the recorded health events).  The cluster
layers then inject real faults — stalls, dropped frames, expired
deadlines, link flaps, wall-clock jumps — and assert the robustness
invariants: admitted work always resolves, slots never leak, and every
completed output stays bit-identical to the fault-free baseline.
"""

import time

import numpy as np
import pytest

from repro.serving import (
    ClusterService,
    DeadlineExceededError,
    FaultPlan,
    FaultRule,
    LeastOutstandingRouter,
    QuarantinePolicy,
    RetryPolicy,
    WorkerCrashError,
    parse_chaos_spec,
    run_chaos_scenario,
)
from repro.serving.loadgen import run_closed_loop, synthetic_images

WAIT_S = 60.0


def make_cluster(**kwargs):
    kwargs.setdefault("models", ("MicroCNN",))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    return ClusterService(**kwargs)


# --------------------------------------------------------------------------
# Plan determinism and the chaos spec grammar
# --------------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.from_seed(7, "crash,stall*2,partition,delay")
        b = FaultPlan.from_seed(7, "crash,stall*2,partition,delay")
        assert a.schedule() == b.schedule()

    def test_different_seed_different_schedule(self):
        spec = "crash,stall,delay"
        assert (FaultPlan.from_seed(1, spec).schedule()
                != FaultPlan.from_seed(2, spec).schedule())

    def test_spec_repeats_expand(self):
        plan = FaultPlan.from_seed(0, "stall*3,crash")
        kinds = sorted(r.kind for r in plan.rules)
        assert kinds == ["crash", "stall", "stall", "stall"]

    def test_unknown_fault_class_raises(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            FaultPlan.from_seed(0, "crash,meteor")

    def test_bad_repeat_counts_raise(self):
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, "stall*x")
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, "stall*0")
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, "")

    def test_parse_chaos_spec_seed_prefix(self):
        plan = parse_chaos_spec("7:crash,delay")
        assert plan.seed == 7
        assert sorted({r.kind for r in plan.rules}) == ["crash", "delay"]
        # A bare plan defaults to seed 0.
        assert parse_chaos_spec("crash").seed == 0

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="gremlin")
        with pytest.raises(ValueError):
            FaultRule(kind="drop", direction="sideways")
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=1.5)


# --------------------------------------------------------------------------
# Frame rules: seeded decisions at the injector level
# --------------------------------------------------------------------------
class TestFrameRules:
    def test_decision_sequence_is_a_pure_function_of_the_seed(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=0.5)],
            seed=3,
        )
        seq = []
        for _ in range(2):
            injector = plan.injector()
            seq.append([len(injector.filter_send("w0", ("reqs", [])))
                        for _ in range(64)])
        assert seq[0] == seq[1]
        assert 0 in seq[0] and 1 in seq[0]  # some dropped, some delivered

    def test_drop_probability_one_drops_every_hot_frame(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=1.0)])
        injector = plan.injector()
        assert injector.filter_send("w0", ("reqs", [])) == []
        assert injector.filter_inbound(("res", "w0", [])) == []

    def test_duplicate_rule_emits_two_deliveries(self):
        plan = FaultPlan(
            [FaultRule(kind="duplicate", duration_s=100.0, probability=1.0,
                       delay_s=0.02, direction="recv")])
        out = plan.injector().filter_inbound(("res", "w0", []))
        assert len(out) == 2
        assert out[1][0] == pytest.approx(0.02)

    def test_delay_rule_defers_delivery(self):
        plan = FaultPlan(
            [FaultRule(kind="delay", duration_s=100.0, probability=1.0,
                       delay_s=0.05)])
        ((delay, message),) = plan.injector().filter_send("w0", ("reqs", []))
        assert delay == pytest.approx(0.05)
        assert message == ("reqs", [])

    def test_control_traffic_is_spared(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=1.0)])
        injector = plan.injector()
        # Heartbeats, readiness and reports are not hot-path frames.
        for message in (("hb", "w0", 1.0), ("ready", "w0"), ("report", {})):
            assert injector.filter_inbound(message) == [(0.0, message)]
        assert injector.filter_send("w0", ("stop",)) == [(0.0, ("stop",))]

    def test_stopped_injector_passes_everything_through(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=1.0)])
        injector = plan.injector()
        injector.stop()
        message = ("reqs", [(0, "M", None)])
        assert injector.filter_send("w0", message) == [(0.0, message)]
        assert injector.filter_inbound(("res", "w0", [])) == [
            (0.0, ("res", "w0", []))]

    def test_injector_is_single_use(self):
        class Controller:
            def worker_ids(self):
                return []

            def kill(self, worker_id):
                pass

            def stall(self, worker_id, seconds):
                pass

        injector = FaultPlan([], seed=0).injector()
        injector.start(Controller())
        try:
            with pytest.raises(RuntimeError, match="single-use"):
                injector.start(Controller())
        finally:
            injector.stop()


# --------------------------------------------------------------------------
# Slow-worker quarantine (router health layer)
# --------------------------------------------------------------------------
class TestQuarantine:
    def make_router(self, workers=3, **policy):
        policy.setdefault("min_samples", 4)
        policy.setdefault("latency_factor", 2.0)
        policy.setdefault("probation_heartbeats", 3)
        router = LeastOutstandingRouter(
            quarantine=QuarantinePolicy(**policy))
        for i in range(workers):
            router.add_worker(f"w{i}")
        return router

    def feed(self, router, slow="w0", slow_s=0.5, fast_s=0.01, rounds=10):
        for _ in range(rounds):
            for worker in router.workers():
                router.record_completion(
                    worker, slow_s if worker == slow else fast_s)

    def test_slow_worker_is_ejected_from_eligibility(self):
        router = self.make_router()
        self.feed(router)
        assert router.quarantined_workers() == ["w0"]
        for _ in range(24):
            worker = router.acquire("M")
            assert worker != "w0"
            router.release(worker)

    def test_probation_readmits_after_clean_heartbeats(self):
        router = self.make_router(probation_heartbeats=3)
        self.feed(router)
        assert "w0" in router.quarantined_workers()
        for _ in range(2):
            router.record_clean_heartbeat("w0")
        assert "w0" in router.quarantined_workers()  # probation not served
        router.record_clean_heartbeat("w0")
        assert router.quarantined_workers() == []
        # w0 is routable again: drain the fleet and it must be offered.
        seen = set()
        held = []
        for _ in range(6):
            worker = router.acquire("M")
            seen.add(worker)
            held.append(worker)
        assert "w0" in seen
        for worker in held:
            router.release(worker)

    def test_consecutive_failures_quarantine(self):
        router = self.make_router()
        for _ in range(3):  # max_consecutive_failures default
            router.record_failure("w1")
        assert "w1" in router.quarantined_workers()

    def test_completion_resets_the_failure_streak(self):
        router = self.make_router()
        for _ in range(2):
            router.record_failure("w1")
        router.record_completion("w1", 0.01)
        router.record_failure("w1")  # streak restarted: 1 of 3
        assert "w1" not in router.quarantined_workers()

    def test_quarantine_never_empties_the_candidate_set(self):
        router = self.make_router(workers=2)
        for worker in ("w0", "w1"):
            for _ in range(3):
                router.record_failure(worker)
        assert sorted(router.quarantined_workers()) == ["w0", "w1"]
        # Routing falls back to the full candidate set rather than
        # shedding everything.
        assert router.acquire("M") is not None

    def test_fresh_incarnation_starts_healthy(self):
        router = self.make_router()
        self.feed(router)
        assert "w0" in router.quarantined_workers()
        router.remove_worker("w0")
        router.add_worker("w0")
        assert "w0" not in router.quarantined_workers()


# --------------------------------------------------------------------------
# End-to-end deadlines
# --------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_before_dispatch_is_dropped_unexecuted(self):
        with make_cluster(workers=1) as cluster:
            image = synthetic_images((8, 8, 3), 1, seed=0)[0]
            future = cluster.submit("MicroCNN", image, timeout=1e-9)
            with pytest.raises(DeadlineExceededError, match="dropped"):
                future.result(timeout=WAIT_S)
            assert cluster.cluster_report().deadline_expired == 1
            stats = cluster.router.stats()
            assert stats.outstanding == 0  # the slot came back
            # The cluster still serves.
            ok = cluster.submit("MicroCNN", image)
            assert ok.result(timeout=WAIT_S) is not None

    def test_deadline_while_blocked_on_admission_raises_synchronously(self):
        with make_cluster(workers=1, max_outstanding=1) as cluster:
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 1.0))
            time.sleep(0.1)  # let the stall take hold
            image = synthetic_images((8, 8, 3), 1, seed=1)[0]
            blocker = cluster.submit("MicroCNN", image)
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                cluster.submit("MicroCNN", image, timeout=0.2)
            assert time.perf_counter() - t0 < 5.0
            assert blocker.result(timeout=WAIT_S) is not None

    def test_deadline_while_dispatched_fails_future_and_frees_slot(self):
        with make_cluster(workers=1) as cluster:
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 1.0))
            time.sleep(0.1)
            image = synthetic_images((8, 8, 3), 1, seed=2)[0]
            future = cluster.submit("MicroCNN", image, timeout=0.3)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=WAIT_S)
            assert cluster.cluster_report().deadline_expired == 1
            deadline = time.time() + WAIT_S
            while time.time() < deadline:
                if cluster.router.stats().outstanding == 0:
                    break
                time.sleep(0.05)
            assert cluster.router.stats().outstanding == 0

    def test_deadline_error_is_a_timeout(self):
        assert issubclass(DeadlineExceededError, TimeoutError)


# --------------------------------------------------------------------------
# Retry and hedging
# --------------------------------------------------------------------------
class TestRetryAndHedging:
    def test_retry_rescues_requests_from_a_stalled_worker(self):
        retry = RetryPolicy(max_attempts=3, min_timeout_s=0.05,
                            max_timeout_s=0.3, min_samples=10**6)
        with make_cluster(workers=2, retry=retry) as cluster:
            images = synthetic_images((8, 8, 3), 12, seed=3)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            victim = next(iter(cluster._workers.values()))
            victim.endpoint.send(("stall", 2.0))
            time.sleep(0.1)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            outputs = np.stack([f.result(timeout=WAIT_S) for f in futures])
            assert np.array_equal(outputs, base.outputs)
            detail = cluster.cluster_report()
            assert detail.retries >= 1

    def test_hedge_duplicates_to_a_second_worker(self):
        retry = RetryPolicy(max_attempts=2, min_timeout_s=0.05,
                            max_timeout_s=30.0, timeout_factor=10**6,
                            hedge=True, hedge_factor=1e-6, min_samples=1)
        with make_cluster(workers=2, retry=retry) as cluster:
            images = synthetic_images((8, 8, 3), 12, seed=4)
            # Warm the latency tracker so the hedge delay is defined.
            for future in cluster.submit_batch("MicroCNN", images[:4]):
                future.result(timeout=WAIT_S)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            victim = next(iter(cluster._workers.values()))
            victim.endpoint.send(("stall", 2.0))
            time.sleep(0.1)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            outputs = np.stack([f.result(timeout=WAIT_S) for f in futures])
            assert np.array_equal(outputs, base.outputs)
            assert cluster.cluster_report().hedges >= 1

    def test_exhausted_retry_budget_fails_terminally_not_hangs(self):
        # Every hot-path frame in both directions is lost for good: no
        # retry can land, so the request must fail — never hang.
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=600.0, probability=1.0)])
        retry = RetryPolicy(max_attempts=2, min_timeout_s=0.05,
                            max_timeout_s=0.1, min_samples=10**6)
        with make_cluster(workers=2, retry=retry, faults=plan) as cluster:
            image = synthetic_images((8, 8, 3), 1, seed=5)[0]
            future = cluster.submit("MicroCNN", image)
            with pytest.raises(WorkerCrashError, match="retry budget"):
                future.result(timeout=WAIT_S)
            deadline = time.time() + WAIT_S
            while time.time() < deadline:
                if cluster.router.stats().outstanding == 0:
                    break
                time.sleep(0.05)
            stats = cluster.router.stats()
            assert stats.outstanding == 0  # every attempt's slot came back
            assert stats.dispatched == stats.completed


# --------------------------------------------------------------------------
# Monotonic heartbeats: wall-clock jumps must not kill workers
# --------------------------------------------------------------------------
class TestClockJumps:
    def test_wall_clock_jump_does_not_respawn_workers(self, monkeypatch):
        """NTP step / DST change: ``time.time`` leaps hours mid-run.

        Worker liveness is judged on monotonic receipt times, so neither
        a forward nor a backward wall-clock jump may read as "every
        heartbeat is stale" (the pre-fix failure: a +1h step killed the
        whole fleet at once).
        """
        offset = [0.0]
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + offset[0])
        with make_cluster(workers=2, heartbeat_interval_s=0.05,
                          heartbeat_timeout_s=0.5) as cluster:
            images = synthetic_images((8, 8, 3), 8, seed=6)
            for jump in (3600.0, -7200.0):
                offset[0] = jump
                for future in cluster.submit_batch("MicroCNN", images):
                    future.result(timeout=WAIT_S)
                # Sit through several heartbeat windows under the jumped
                # clock: supervision must keep seeing live workers.
                time.sleep(0.6)
            detail = cluster.cluster_report()
            assert detail.respawns == 0
            assert detail.workers == 2


# --------------------------------------------------------------------------
# Reconnect storm: flapping links must not leak
# --------------------------------------------------------------------------
class TestReconnectStorm:
    def test_flapping_socket_worker_leaks_nothing(self):
        with make_cluster(transport="tcp", workers=2,
                          heartbeat_timeout_s=5.0) as cluster:
            images = synthetic_images((8, 8, 3), 8, seed=7)
            for _ in range(3):
                futures = [cluster.submit("MicroCNN", img) for img in images]
                victim = next(iter(cluster._workers.values()))
                victim.endpoint.channel.close()  # link blip, process alive
                for future in futures:
                    assert future.result(timeout=WAIT_S) is not None
                deadline = time.time() + WAIT_S
                while time.time() < deadline:
                    with cluster._lock:
                        ready = sum(1 for w in cluster._workers.values()
                                    if w.ready)
                        rejoining = len(cluster._rejoin_pending)
                    if ready >= 2 and rejoining == 0:
                        break
                    time.sleep(0.05)
            with cluster._lock:
                assert len(cluster._workers) == 2
                assert cluster._rejoin_pending == {}
                assert cluster._spawn_pending == {}
                assert cluster._stale_holders == {}
                assert cluster._pending == {}
            assert len(cluster.router.workers()) == 2
            stats = cluster.router.stats()
            assert stats.outstanding == 0
            assert stats.dispatched == stats.completed


# --------------------------------------------------------------------------
# The seeded end-to-end chaos run
# --------------------------------------------------------------------------
class TestChaosScenario:
    SPEC = "crash,stall,partition,delay"

    def test_chaos_run_is_lossless_and_bit_identical(self):
        plan = FaultPlan.from_seed(42, self.SPEC, horizon_s=1.0)
        result = run_chaos_scenario(
            plan, workers=3, requests=96, offered_rps=150.0, seed=42,
            heartbeat_interval_s=0.1, heartbeat_timeout_s=1.0,
        )
        # Every offered request resolved into exactly one bucket — a hung
        # future would have raised inside the scenario runner.
        ledger = result.ledger
        assert ledger.offered == 96
        assert (ledger.completed + ledger.shed + ledger.deadline_expired
                + ledger.failed) == 96
        assert ledger.failed == 0
        assert result.bit_identical
        assert len(result.fault_events) >= 1
        # The same seed reproduces the same fault schedule.
        replay = FaultPlan.from_seed(42, self.SPEC, horizon_s=1.0)
        assert tuple(replay.schedule()) == result.schedule

    def test_chaos_run_with_deadlines_accounts_every_request(self):
        plan = FaultPlan.from_seed(11, "stall,delay", horizon_s=0.5)
        result = run_chaos_scenario(
            plan, workers=2, requests=48, offered_rps=150.0, seed=11,
            deadline_s=5.0,
            heartbeat_interval_s=0.1, heartbeat_timeout_s=1.0,
        )
        ledger = result.ledger
        assert ledger.offered == 48
        assert (ledger.completed + ledger.shed + ledger.deadline_expired
                + ledger.failed) == 48
        assert result.bit_identical  # whatever completed is bit-exact

    def test_fault_free_control_run(self):
        result = run_chaos_scenario(
            None, workers=2, requests=24, offered_rps=200.0, seed=1,
        )
        assert result.ledger.completed == 24
        assert result.fault_events == ()
        assert result.schedule == ()
        assert result.bit_identical
        assert "Chaos scenario" in result.table()
