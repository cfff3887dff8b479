"""The one open-loop driver and its request ledger, against a fake cluster.

Every cluster load shape — flat shedding, phased spikes, chaos, rollout
drills and multi-tenant scenarios — rides :func:`drive_open_loop`.  These
tests run each of them against the same in-process fake cluster (no
worker processes) whose requests shed, expire, crash, hang or complete
in a seeded pattern, and check the ledger's lossless accounting, the
drain-side error accounting, the hung-future guard and the bit-exactness
verdict.
"""

import threading
from concurrent.futures import TimeoutError as FuturesTimeoutError
from types import SimpleNamespace

import numpy as np
import pytest

import repro.serving.cluster as cluster_module
from repro.serving.cluster import (
    ClusterOverloadError,
    DeadlineExceededError,
    WorkerCrashError,
)
from repro.serving.loadgen import (
    RequestLedger,
    run_chaos_scenario,
    run_open_loop_shedding,
    run_rollout_drill,
    run_spike_load,
    synthetic_images,
)
from repro.serving.scenarios import ScenarioSpec, run_scenario

MODEL = "MicroCNN"
IMAGES = synthetic_images((8, 8, 3), 48, seed=3)

#: Outcomes the fake draws per submission, with their probabilities.
SEEDED_KINDS = ("ok", "shed", "expire_at_submit", "expire", "crash")
SEEDED_P = (0.4, 0.15, 0.15, 0.15, 0.15)


def fake_row(image) -> np.ndarray:
    """The fake's deterministic "inference": a function of the image."""
    return np.asarray(image, dtype=np.float32).reshape(-1)[:6].copy()


class FakeFuture:
    """A future resolved at creation, or one that never resolves.

    A hung future blocks forever when ``result()`` is called without a
    timeout and raises ``concurrent.futures.TimeoutError`` at once when a
    timeout is given.
    """

    def __init__(self, row=None, error=None, hung=False):
        self.row, self.error, self.hung = row, error, hung

    def add_done_callback(self, callback):
        if not self.hung:
            callback(self)

    def result(self, timeout=None):
        if self.hung:
            if timeout is None:
                threading.Event().wait()
            raise FuturesTimeoutError()
        if self.error is not None:
            raise self.error
        return self.row


class FakeBaseline:
    """Single-process stand-in: answers ``submit_batch`` with fake rows."""

    def submit_batch(self, model, images):
        return [FakeFuture(row=fake_row(image)) for image in images]

    def report(self, model):
        return None

    def close(self):
        pass


class FakeCluster:
    """Duck-typed ``ClusterService`` for the open-loop drivers.

    ``kinds`` fixes the outcome of each submission in turn (cycled); by
    default they are drawn from a seeded rng.  ``corrupt`` flips one
    value in the first completed row.
    """

    def __init__(self, kinds=None, seed=0, corrupt=False, **_cluster_kwargs):
        self.kinds = kinds
        self.rng = np.random.default_rng(seed)
        self.corrupt = corrupt
        self.submits = 0
        self.published = []
        self.fault_events = []

    def _kind(self) -> str:
        if self.kinds is not None:
            return self.kinds[self.submits % len(self.kinds)]
        return str(self.rng.choice(SEEDED_KINDS, p=SEEDED_P))

    def submit(self, model, image, block=True, timeout=None, slo=None):
        kind = self._kind()
        self.submits += 1
        if kind == "shed":
            raise ClusterOverloadError(0.004)
        if kind == "expire_at_submit":
            raise DeadlineExceededError("expired waiting for admission")
        if kind == "expire":
            return FakeFuture(error=DeadlineExceededError("expired"))
        if kind == "crash":
            return FakeFuture(error=WorkerCrashError("fleet is gone"))
        if kind == "hang":
            return FakeFuture(hung=True)
        row = fake_row(image)
        if self.corrupt:
            row[0] += 1.0
            self.corrupt = False
        return FakeFuture(row=row)

    def baseline_service(self):
        return FakeBaseline()

    def cluster_report(self):
        return SimpleNamespace(retries=0, hedges=0, quarantined=0,
                               respawns=0, requeued=0, aggregated={})

    def publish(self, network, model=None, rollout=None):
        self.published.append(model)

    def rollback(self, model, reason=""):
        pass

    def rollout_status(self, model=None):
        if not self.published:
            return []
        return [{"phase": "committed", "rollback_reason": None,
                 "old_digest": "0" * 64, "new_digest": "1" * 64,
                 "canary": {}}]

    def rollout_timeline(self, model):
        return []

    def measured_model_shares(self):
        return {}

    def rebalance_pinning(self):
        return None

    def close(self):
        pass


def expected_rows(images) -> dict:
    return {MODEL: np.stack([fake_row(image) for image in images])}


# ---------------------------------------------------------------------------
# every driver, one fake: lossless accounting and the bit-exactness verdict
# ---------------------------------------------------------------------------

def _shedding(make):
    ledger = run_open_loop_shedding(make(), MODEL, IMAGES,
                                    offered_rps=4000.0, seed=1)
    return ledger, ledger.bit_identical(expected_rows(IMAGES))


def _spike(make):
    ledger = run_spike_load(make(), MODEL, IMAGES,
                            phases=[("warm", 2000.0, 0.02),
                                    ("spike", 5000.0, 0.02)], seed=1)
    return ledger, ledger.bit_identical(expected_rows(IMAGES))


def _chaos(make):
    result = run_chaos_scenario(None, model=MODEL, requests=48,
                                offered_rps=4000.0, seed=1)
    return result.ledger, result.bit_identical


def _rollout(make):
    result = run_rollout_drill(model=MODEL, requests=48, offered_rps=4000.0,
                               seed=1)
    return result.ledger, result.bit_identical


def _scenario(make):
    spec = ScenarioSpec.parse(
        "web,slo=interactive,rate=1500;jobs,slo=batch,rate=1500",
        name="fake", duration_s=0.04)
    result = run_scenario(spec, seed=1, workers=1)
    for tenant in result.tenants:
        group = result.ledger.group(tenant.tenant)
        assert (tenant.offered, tenant.completed, tenant.shed,
                tenant.deadline_expired, tenant.failed) == (
            group.offered, group.completed, group.shed,
            group.deadline_expired, group.failed)
    return result.ledger, result.bit_identical


DRIVERS = {
    "shedding": _shedding,
    "spike": _spike,
    "chaos": _chaos,
    "rollout": _rollout,
    "scenario": _scenario,
}


@pytest.mark.timeout_s(60)
@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("corrupt", [False, True])
def test_every_driver_accounts_for_every_arrival(driver, corrupt,
                                                 monkeypatch):
    built = []

    def make(**cluster_kwargs):
        built.append(FakeCluster(seed=7, corrupt=corrupt, **cluster_kwargs))
        return built[-1]

    # The drivers that build their own cluster get the fake too.
    monkeypatch.setattr(cluster_module, "ClusterService", make)
    ledger, bit_identical = DRIVERS[driver](make)
    # Every submission lands in exactly one bucket, per group and
        # in total.
    assert len(built) == 1
    assert ledger.offered == built[0].submits > 0
    assert ledger.groups
    for name in ledger.groups:
        group = ledger.group(name)
        assert group.offered == (group.completed + group.shed
                                 + group.deadline_expired + group.failed)
    # The seeded pattern exercises every outcome, at submission and on
    # the drained future alike.
    assert ledger.completed and ledger.shed and ledger.failed
    assert ledger.deadline_expired
    assert bit_identical is not corrupt


# ---------------------------------------------------------------------------
# the two drivers that used to lack the drain-side guards
# ---------------------------------------------------------------------------

def _run_plain(driver, cluster):
    if driver == "shedding":
        return run_open_loop_shedding(cluster, MODEL, IMAGES[:12],
                                      offered_rps=4000.0, seed=2)
    return run_spike_load(cluster, MODEL, IMAGES[:12],
                          phases=[("warm", 2000.0, 0.01),
                                  ("spike", 4000.0, 0.01)], seed=2)


@pytest.mark.timeout_s(10)
@pytest.mark.parametrize("driver", ["shedding", "spike"])
def test_lost_request_raises_hung_future(driver):
    cluster = FakeCluster(kinds=("ok", "ok", "hang"))
    with pytest.raises(RuntimeError, match="hung future"):
        _run_plain(driver, cluster)


@pytest.mark.timeout_s(10)
@pytest.mark.parametrize("driver", ["shedding", "spike"])
def test_drained_errors_are_counted_not_raised(driver):
    cluster = FakeCluster(kinds=("ok", "crash", "expire", "shed"))
    ledger = _run_plain(driver, cluster)
    assert ledger.offered == cluster.submits
    kinds = [cluster.kinds[n % 4] for n in range(cluster.submits)]
    assert ledger.completed == kinds.count("ok")
    assert ledger.failed == kinds.count("crash") > 0
    assert ledger.deadline_expired == kinds.count("expire") > 0
    assert ledger.shed == kinds.count("shed")
    assert ledger.retry_after_ms_mean == pytest.approx(4.0)


def test_empty_group_and_ledger_are_zero():
    ledger = RequestLedger(
        [("a", "completed", (MODEL, 0), fake_row(IMAGES[0]), 0.001, 0.0)],
        wall_s=0.5)
    assert ledger.goodput_rps == pytest.approx(2.0)
    assert ledger.group("missing").offered == 0
    assert ledger.group("missing").shed_rate == 0.0
    assert RequestLedger().goodput_rps == 0.0
    assert ledger.bit_identical(expected_rows(IMAGES))
