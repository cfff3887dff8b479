"""Workload definitions and the per-workload child process of the benchmark.

``run.py`` starts this file in a fresh interpreter for every workload, so
plan caches, thread pools and peak RSS never carry over from one workload
to the next::

    python3 perfbench/workloads.py --workload zoo_offline --seed 1 \
        --seconds 30 --mode measure

It prints one JSON object as its last line of standard output.

Modes:

* ``measure`` -- the untraced run: set up ``SETUP_REPEATS`` times, measure
  the workload for ``--seconds`` and report the end-to-end metrics.
* ``profile`` -- the traced run of one workload: an untraced phase, then
  a traced phase of the same length, so that the ratio of the two gives
  the tracing overhead
  (``serve_bulk`` adds a third phase against an in-process service).
  Tracing is timing taken here, around calls into each layer's public
  functions; no code under ``src/`` is changed or wrapped.

Every output is compared bit for bit with the layer-by-layer interpreter
(``PhoneBitEngine(use_plan=False)``) on the same artifact; the reference is
computed after the timed phases, so it is part of neither set-up nor
measurement.  Sizes and rates below are constants: they are never derived
from a capacity measured at run time, so a faster program never gets a
heavier workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

# -------------------------------------------------------------- constants

#: Paper networks (Table III) at the reduced input sizes
#: ``benchmarks/bench_fused_exec.py`` uses: metric key -> (zoo name, size).
ZOO_MODELS = {
    "alexnet": ("AlexNet", 127),
    "vgg16": ("VGG16", 64),
    "yolov2_tiny": ("YOLOv2 Tiny", 64),
}
#: Images per ``run_batch`` call in the throughput phase.
ZOO_BATCH = 16
#: Distinct input images per zoo model; batches draw from this pool, which
#: bounds the interpreter reference (about 0.3 s per AlexNet image).
ZOO_POOL = 4
#: ``zoo_offline`` gives each model in turn a block of ``ZOO_BLOCK_S``:
#: this share of it on batch throughput, the rest timing single images.
#: The turns cycle over the whole run, so every model and both kinds of
#: call sample the host over the whole run, not a third or a half each.
ZOO_THROUGHPUT_SHARE = 0.6
ZOO_BLOCK_S = 1.0
#: Untimed batch-16 calls before the throughput phase (arena, tile pool).
ZOO_WARM_CALLS = 2

#: Both serving workloads run one pipe worker with one executor thread:
#: the load generator plus the worker fill a 2-CPU host.
SERVE_WORKERS = 1
SERVE_WORKER_THREADS = 1

OPEN_MODEL = "MicroCNN"
#: Fixed Poisson arrival rate, about a fifth of one worker's closed-loop
#: capacity on a 2-CPU host.
OPEN_RATE_RPS = 800.0
#: Cluster-wide response-cache entries.
OPEN_CACHE_ENTRIES = 1024
#: Share of requests drawn Zipf-style from the hot set; the rest are unique.
OPEN_HOT_SHARE = 0.2
OPEN_HOT_SET = 64
OPEN_ZIPF_S = 1.0
#: End-to-end deadline per request, counted from its due time.
OPEN_DEADLINE_S = 1.0
#: A request meets the SLO when it completes correctly this soon after its
#: due time.
OPEN_SLO_MS = 25.0
#: Largest allowed gap between the repeat share the schedule implies and
#: the cache hit ratio the cluster reports.
OPEN_HIT_RATIO_TOLERANCE = 0.01

BULK_MODEL = "TinyCNN"
#: Images per ``submit_batch`` call of the closed-loop client.
BULK_CALL = 64
#: Distinct images, walked in a fixed seeded order so that every call holds
#: 64 different images.  The cluster cache is off on this workload.
BULK_POOL = 256

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Time allowed for one response before the run counts it as failed.
RESULT_TIMEOUT_S = 30.0

WORKLOADS = ("zoo_offline", "serve_open", "serve_bulk")


# ---------------------------------------------------------------- helpers

def _median(values) -> float:
    return float(statistics.median(values))


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Ledger:
    """Operations attempted and failed, and outputs compared."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.errors: Dict[str, int] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def check(self, got: np.ndarray, expected: np.ndarray) -> bool:
        """Compare one operation's output; a mismatch is a failure."""
        self.verified += 1
        if got.shape == expected.shape and np.array_equal(got, expected):
            return True
        self.fail("wrong output")
        return False

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "verified": self.verified, "errors": dict(self.errors)}


# ------------------------------------------------------------- zoo models

def build_zoo_network(model: str):
    from repro.models.zoo import build_phonebit_network, get_serving_config

    name, size = ZOO_MODELS[model]
    config = dataclasses.replace(get_serving_config(name),
                                 input_shape=(size, size, 3))
    return build_phonebit_network(config, rng=0)


def zoo_setup(model: str, engine, first_image: np.ndarray) -> dict:
    """Build, warm and answer one image; returns network, output, timings."""
    t0 = time.perf_counter()
    network = build_zoo_network(model)
    t1 = time.perf_counter()
    network.warm(engine.backend)
    t2 = time.perf_counter()
    out = engine.run_batch(network, first_image, collect_estimate=False)
    t3 = time.perf_counter()
    return {"network": network, "output": out.output.data,
            "build_s": t1 - t0, "warm_s": t2 - t1, "setup_s": t3 - t0}


def xor_word_ops(network, step) -> int:
    """xor-popcount word operations of one fused step, per image.

    Computed from layer geometry: output positions x filters x packed words
    per filter.  Zero for steps that run no xor-popcount GEMM.
    """
    from repro.core import bitpack
    from repro.core.plan import FusedConvStep, FusedDenseStep

    layer = step.layer
    if isinstance(step, FusedDenseStep):
        words = bitpack.words_per_channel(layer.in_features, layer.word_size)
        return layer.out_features * words
    if isinstance(step, FusedConvStep) and not step.is_input_conv:
        out_h, out_w, _ = network.layer_shapes()[step.layer_start][2]
        words = bitpack.words_per_channel(layer.in_channels, layer.word_size)
        return (out_h * out_w * layer.out_channels
                * layer.kernel_size ** 2 * words)
    return 0


class ZooRun:
    """One zoo model: set-up, timed rounds and verification.

    A timed phase is ``start_phase``, then any mix of ``batch_round`` and
    ``single_round`` calls, then ``phase_result``; ``zoo_phase`` drives the
    three models through one phase together.
    """

    def __init__(self, model: str, seed: int, engine, ledger: Ledger,
                 corrupt: bool = False):
        self.model = model
        self.engine = engine
        self.ledger = ledger
        self.corrupt = corrupt
        _, size = ZOO_MODELS[model]
        self.rng = np.random.default_rng([seed, size])
        self.pool = self.rng.integers(0, 256, size=(ZOO_POOL, size, size, 3),
                                      dtype=np.uint8)
        #: (pool indices, output) per operation, verified after timing.
        self.outputs: List[tuple] = []
        self.setups: List[dict] = []
        self.network = None
        self.plan = None
        self.traced = False
        self.samples: Dict[str, list] = {}

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            result = zoo_setup(self.model, self.engine, self.pool[:1])
            self.ledger.attempted += 1
            self.outputs.append((np.array([0]), result.pop("output")))
            self.network = result.pop("network")
            self.setups.append(result)

    def _batch(self, size: int) -> tuple:
        index = self.rng.integers(0, ZOO_POOL, size=size)
        return index, self.pool[index]

    def _call(self, size: int) -> tuple:
        """One timed ``run_batch``; returns ``(seconds, report)``."""
        index, batch = self._batch(size)
        t0 = time.perf_counter()
        report = self.engine.run_batch(self.network, batch,
                                       collect_estimate=False)
        seconds = time.perf_counter() - t0
        self.ledger.attempted += 1
        self.outputs.append((index, report.output.data))
        return seconds, report

    def warm(self) -> None:
        for _ in range(ZOO_WARM_CALLS):
            self._call(ZOO_BATCH)

    def start_phase(self, traced: bool) -> None:
        """Untraced: batch-16 and single-image ``run_batch`` wall times.

        Traced: the same calls, plus the engine overhead of each (wall time
        minus the step time it reports), and after every batch-16 call one
        ``ExecutionPlan.execute(step_times=...)`` at batch 16 for the
        per-step profile.
        """
        from repro.core import plan as plan_mod

        self.traced = traced
        self.plan = plan_mod.get_plan(self.network)
        self.samples = {"batch": [], "single": [], "overhead16": [],
                        "overhead1": [],
                        "steps": [[] for _ in self.plan.steps]}

    def batch_round(self) -> None:
        wall, report = self._call(ZOO_BATCH)
        self.samples["batch"].append(wall)
        if not self.traced:
            return
        self.samples["overhead16"].append(
            wall - sum(report.layer_wall_ms.values()) / 1e3)
        index, batch = self._batch(ZOO_BATCH)
        step_times: list = []
        out = self.plan.execute(batch, threads=self.engine.num_threads,
                                step_times=step_times)
        self.ledger.attempted += 1
        self.outputs.append((index, out.data))
        for position, (_, step_s) in enumerate(step_times):
            self.samples["steps"][position].append(step_s)

    def single_round(self) -> None:
        wall, report = self._call(1)
        self.samples["single"].append(wall)
        if self.traced:
            self.samples["overhead1"].append(
                wall - sum(report.layer_wall_ms.values()) / 1e3)

    def phase_result(self) -> dict:
        samples = self.samples
        result = {
            "images_per_s": ZOO_BATCH / _median(samples["batch"]),
            "latency_p50_ms": _median(samples["single"]) * 1000.0,
            "batch_calls": len(samples["batch"]),
            "single_calls": len(samples["single"]),
        }
        if not self.traced:
            return result
        metrics = {}
        xor_ops = 0
        xor_s = 0.0
        for position, step in enumerate(self.plan.steps):
            layer_name = self.network.layers[step.layer_start].name
            step_s = _median(samples["steps"][position])
            metrics[f"plan.step_ms.{self.model}.{layer_name}"] = (
                step_s * 1000.0 / ZOO_BATCH, "ms")
            ops = xor_word_ops(self.network, step)
            if ops:
                xor_ops += ops * ZOO_BATCH
                xor_s += step_s
        backends = self.plan.backend_report()["steps"].values()
        metrics[f"backends.compiled_steps.{self.model}"] = (
            sum(1 for name in backends if name != "numpy"), "count")
        metrics[f"backends.xor_gops.{self.model}"] = (
            xor_ops / xor_s / 1e9, "Gop/s")
        metrics[f"engine.overhead_ms.{self.model}.b16"] = (
            _median(samples["overhead16"]) * 1000.0, "ms")
        metrics[f"engine.overhead_ms.{self.model}.b1"] = (
            _median(samples["overhead1"]) * 1000.0, "ms")
        result["metrics"] = metrics
        return result

    def verify(self) -> None:
        from repro.core.engine import PhoneBitEngine

        reference = PhoneBitEngine(use_plan=False).run_batch(
            self.network, self.pool, collect_estimate=False).output.data
        if self.corrupt:
            self.outputs[-1] = (self.outputs[-1][0],
                                _flip_one_bit(self.outputs[-1][1]))
        for index, output in self.outputs:
            self.ledger.check(output, reference[index])

    def backend_steps(self) -> Dict[str, str]:
        from repro.core import plan as plan_mod

        return plan_mod.get_plan(self.network).backend_report()["steps"]


def zoo_phase(runs: List[ZooRun], seconds: float, traced: bool) -> dict:
    """Time every model for ``seconds``, in turns of ``ZOO_BLOCK_S`` each.

    In each turn a model runs batch-16 rounds for ``ZOO_THROUGHPUT_SHARE``
    of the block, then single-image rounds for the rest, at least one of
    each; the turns cycle through the models until the time is up, so
    every model samples the host over the whole phase.  Returns each
    model's ``phase_result`` and the geometric means over the models.
    """
    for run in runs:
        run.start_phase(traced)
    end = time.perf_counter() + seconds
    while True:
        for run in runs:
            block = time.perf_counter()
            switch = block + ZOO_BLOCK_S * ZOO_THROUGHPUT_SHARE
            run.batch_round()
            while time.perf_counter() < switch:
                run.batch_round()
            run.single_round()
            while time.perf_counter() < block + ZOO_BLOCK_S:
                run.single_round()
        if time.perf_counter() >= end:
            break
    models = {run.model: run.phase_result() for run in runs}
    return {
        "models": models,
        "images_per_s": _geomean(m["images_per_s"] for m in models.values()),
        "latency_p50_ms": _geomean(m["latency_p50_ms"]
                                   for m in models.values()),
    }


def _geomean(values) -> float:
    values = list(values)
    return float(np.exp(np.mean(np.log(values))))


def _flip_one_bit(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` with one bit changed (the self-test's fault)."""
    copy = np.array(array)
    raw = copy.view(np.uint8).reshape(-1)
    raw[0] ^= 1
    return copy


def zoo_engine():
    from repro.core.engine import PhoneBitEngine

    return PhoneBitEngine(backend="auto", num_threads=nproc())


def zoo_runs(seed: int, corrupt: bool):
    """Set up and warm every zoo model on one shared engine.

    ``corrupt`` reaches only the last model, so a corrupted run has exactly
    one wrong output.
    """
    engine = zoo_engine()
    ledger = Ledger()
    runs = [ZooRun(model, seed, engine, ledger,
                   corrupt and model == list(ZOO_MODELS)[-1])
            for model in ZOO_MODELS]
    for run in runs:
        run.setup()
    for run in runs:
        run.warm()
    return runs, ledger


def _setup_sum(runs: List[ZooRun], key: str) -> float:
    """Per-model median of a set-up time, summed over the models."""
    return sum(_median(s[key] for s in run.setups) for run in runs)


def measure_zoo(seed: int, seconds: float, corrupt: bool) -> dict:
    runs, ledger = zoo_runs(seed, corrupt)
    result = zoo_phase(runs, seconds, traced=False)
    peak_rss = vm_hwm_mb()
    for run in runs:
        run.verify()
    return {
        "ledger": ledger.to_dict(),
        "metrics": {
            "setup_s": (_setup_sum(runs, "setup_s"), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "images_per_s": (result["images_per_s"], "1/s"),
            "latency_p50_ms": (result["latency_p50_ms"], "ms"),
        },
        "detail": {
            "models": result["models"],
            "setups": {run.model: run.setups for run in runs},
            "threads": nproc(),
            "plan_step_backends": {run.model: run.backend_steps()
                                   for run in runs},
        },
    }


def profile_zoo(seed: int, seconds: float, corrupt: bool) -> dict:
    runs, ledger = zoo_runs(seed, corrupt)
    untraced = zoo_phase(runs, seconds / 2.0, traced=False)
    traced = zoo_phase(runs, seconds / 2.0, traced=True)
    for run in runs:
        run.verify()
    metrics: Dict[str, tuple] = {}
    for model, result in untraced["models"].items():
        metrics[f"images_per_s.{model}"] = (result["images_per_s"], "1/s")
        metrics[f"latency_p50_ms.{model}"] = (result["latency_p50_ms"], "ms")
    for result in traced["models"].values():
        metrics.update(result.pop("metrics"))
    metrics["trace.overhead.zoo_offline"] = (
        untraced["images_per_s"] / traced["images_per_s"], "ratio")
    metrics["setup.build_s"] = (_setup_sum(runs, "build_s"), "s")
    metrics["setup.warm_s"] = (_setup_sum(runs, "warm_s"), "s")
    detail = {"untraced": untraced["models"], "traced": traced["models"],
              "plan_step_backends": {run.model: run.backend_steps()
                                     for run in runs}}
    return {"ledger": ledger.to_dict(), "metrics": metrics, "detail": detail}


# ---------------------------------------------------------------- serving

def start_cluster(model: str, cache_entries: int):
    from repro.serving import ClusterService

    return ClusterService(
        models=(model,), workers=SERVE_WORKERS,
        worker_threads=SERVE_WORKER_THREADS, worker_backend="auto",
        cache_capacity=cache_entries, transport="pipe",
    )


def worker_peak_rss_mb() -> float:
    """Largest ``VmHWM`` among this process's live worker processes."""
    peaks = [vm_hwm_mb(child.pid) for child in multiprocessing.active_children()]
    return max(peaks, default=0.0)


class ServeRun:
    """Shared set-up, reports and verification of the serving workloads."""

    def __init__(self, model: str, cache_entries: int, warm_image: np.ndarray,
                 corrupt: bool = False) -> None:
        self.model = model
        self.cache_entries = cache_entries
        self.warm_image = warm_image
        self.corrupt = corrupt
        self.ledger = Ledger()
        self.setups: List[dict] = []
        self.cluster = None
        #: ``(input key, output)`` per operation, verified after timing.
        self.outputs: List[tuple] = []
        #: Latency from the due time, by position in ``outputs``.
        self.latency_s: Dict[int, float] = {}

    def setup(self) -> None:
        """Spawn the cluster ``SETUP_REPEATS`` times; keep the last one."""
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cluster = start_cluster(self.model, self.cache_entries)
            t1 = time.perf_counter()
            self.ledger.attempted += 1
            try:
                output = cluster.submit(self.model, self.warm_image).result(
                    timeout=RESULT_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.ledger.fail(type(exc).__name__)
            else:
                self.outputs.append((-1, output))
            t2 = time.perf_counter()
            self.setups.append({"cluster_ready_s": t1 - t0,
                                "setup_s": t2 - t0})
            if repeat < SETUP_REPEATS - 1:
                cluster.close()
            else:
                self.cluster = cluster

    def snapshot(self) -> dict:
        report = self.cluster.cluster_report()
        workers = [reports[self.model]
                   for reports in report.worker_reports.values()
                   if self.model in reports]
        cache = self.cluster.cache_stats()
        return {"report": report, "workers": workers, "cache": cache}

    def layer_metrics(self, before: dict, after: dict) -> Dict[str, tuple]:
        """Cluster, scheduler, transport and store metrics of one phase."""
        batches = triggered = requests = 0
        for old, new in zip(before["workers"], after["workers"]):
            batches += new.scheduler.batch_count - old.scheduler.batch_count
            requests += (new.scheduler.batched_requests
                         - old.scheduler.batched_requests)
            triggered += (new.scheduler.trigger_counts.get("timeout", 0)
                          - old.scheduler.trigger_counts.get("timeout", 0))
        report = after["report"]
        worker_p50 = _median(w.latency.p50_ms for w in after["workers"])
        router_p50 = report.aggregated[self.model].latency.p50_ms
        return {
            "router.dispatched": (report.router.dispatched
                                  - before["report"].router.dispatched,
                                  "count"),
            "scheduler.mean_batch_size": (requests / max(1, batches),
                                          "requests"),
            "scheduler.timeout_flush_share": (triggered / max(1, batches),
                                              "ratio"),
            "scheduler.max_queue_depth": (
                max(w.scheduler.max_queue_depth for w in after["workers"]),
                "requests"),
            "service.worker_p50_ms": (worker_p50, "ms"),
            # A difference of medians, not a median of differences.
            "transport.round_trip_ms.p50": (router_p50 - worker_p50, "ms"),
            "shm_store.attach_ms_mean": (report.attach_ms_mean, "ms"),
            "shm_store.bytes": (report.store_bytes, "bytes"),
            "setup.cluster_ready_s": (
                _median(s["cluster_ready_s"] for s in self.setups), "s"),
        }

    def baseline(self):
        """In-process service over the bytes the worker serves.

        ``baseline_service()`` attaches the cluster's own artifact; the
        engine and cache settings are the worker's.  The caller closes it.
        """
        from repro.core.engine import PhoneBitEngine

        config = self.cluster.config
        return self.cluster.baseline_service(
            engine=PhoneBitEngine(num_threads=config.threads,
                                  backend=config.backend),
            cache_capacity=config.cache_capacity,
        )

    def reference(self, service, images: np.ndarray) -> np.ndarray:
        """Interpreter outputs for ``images`` on the baseline's network."""
        from repro.core.engine import PhoneBitEngine

        return PhoneBitEngine(use_plan=False).run_batch(
            service.pool.get(self.model), images,
            collect_estimate=False).output.data

    def verify(self, expected_by_id) -> List[bool]:
        """Compare every output; returns one flag per entry of ``outputs``."""
        if self.corrupt and self.outputs:
            image_id, output = self.outputs[-1]
            self.outputs[-1] = (image_id, _flip_one_bit(output))
        return [self.ledger.check(np.asarray(output), expected_by_id(image_id))
                for image_id, output in self.outputs]

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None


# ----------------------------------------------------------- serve_open

class OpenSchedule:
    """Seeded Poisson arrivals with a Zipf-distributed hot set."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 8])
        shape = (8, 8, 3)
        self.hot = rng.integers(0, 256, size=(OPEN_HOT_SET,) + shape,
                                dtype=np.uint8)
        self.warm_image = rng.integers(0, 256, size=shape, dtype=np.uint8)
        expected = int(OPEN_RATE_RPS * seconds)
        gaps = rng.exponential(1.0 / OPEN_RATE_RPS,
                               size=expected + 10 * int(expected ** 0.5) + 10)
        offsets = np.cumsum(gaps)
        self.offsets = offsets[offsets < seconds]
        count = len(self.offsets)
        ranks = np.arange(1, OPEN_HOT_SET + 1, dtype=np.float64)
        weights = ranks ** -OPEN_ZIPF_S
        is_hot = rng.random(count) < OPEN_HOT_SHARE
        hot_rank = rng.choice(OPEN_HOT_SET, size=count, p=weights / weights.sum())
        n_unique = int(count - is_hot.sum())
        self.unique = rng.integers(0, 256, size=(n_unique,) + shape,
                                   dtype=np.uint8)
        #: Image id per request: ``< OPEN_HOT_SET`` names a hot image.
        self.ids = np.empty(count, dtype=np.int64)
        self.ids[is_hot] = hot_rank[is_hot]
        self.ids[~is_hot] = OPEN_HOT_SET + np.arange(n_unique)

    def image(self, image_id: int) -> np.ndarray:
        if image_id < 0:
            return self.warm_image
        if image_id < OPEN_HOT_SET:
            return self.hot[image_id]
        return self.unique[image_id - OPEN_HOT_SET]

    def all_images(self) -> np.ndarray:
        return np.concatenate([self.hot, self.unique, self.warm_image[None]])

    def repeat_share(self, start: int, stop: int) -> float:
        """Share of requests ``[start, stop)`` whose image came earlier."""
        seen = set()
        repeats = 0
        for position, image_id in enumerate(self.ids[:stop].tolist()):
            if position >= start and image_id in seen:
                repeats += 1
            seen.add(image_id)
        return repeats / max(1, stop - start)


def open_loop(run: ServeRun, schedule: OpenSchedule, start: int, stop: int,
              traced: bool) -> dict:
    """Send requests ``[start, stop)`` on their schedule; time from due."""
    from repro.serving import ClusterOverloadError, DeadlineExceededError

    cluster = run.cluster
    count = stop - start
    done_at = [0.0] * count
    futures: List = [None] * count
    late_s = np.empty(count)
    submit_s: List[float] = []
    origin = schedule.offsets[start] - 0.01
    t0 = time.perf_counter()
    due = t0 + schedule.offsets[start:stop] - origin

    def stamp(position: int):
        def done(_future, _position=position):
            done_at[_position] = time.perf_counter()
        return done

    for position in range(count):
        image = schedule.image(int(schedule.ids[start + position]))
        delay = due[position] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = time.perf_counter()
        late_s[position] = now - due[position]
        run.ledger.attempted += 1
        try:
            if traced:
                call_t0 = time.perf_counter()
            future = cluster.submit(
                run.model, image, block=True,
                timeout=due[position] + OPEN_DEADLINE_S - now)
            if traced:
                submit_s.append(time.perf_counter() - call_t0)
        except (ClusterOverloadError, DeadlineExceededError) as exc:
            run.ledger.fail(type(exc).__name__)
            continue
        future.add_done_callback(stamp(position))
        futures[position] = future

    latencies: List[float] = []
    for position, future in enumerate(futures):
        if future is None:
            continue
        try:
            output = future.result(timeout=RESULT_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            run.ledger.fail(type(exc).__name__)
            continue
        latency = done_at[position] - due[position]
        latencies.append(latency)
        run.latency_s[len(run.outputs)] = latency
        run.outputs.append((int(schedule.ids[start + position]), output))
    result = {
        "sent": count,
        "completed": len(latencies),
        "latency_p50_ms": _pct(latencies, 50) * 1000.0,
        "latency_p99_ms": _pct(latencies, 99) * 1000.0,
        "late_p99_ms": _pct(late_s, 99) * 1000.0,
        "late_max_ms": float(late_s.max()) * 1000.0,
        "images_per_s": len(latencies) / (schedule.offsets[stop - 1]
                                          - schedule.offsets[start]),
    }
    if traced:
        result["submit_us_p50"] = _pct(submit_s, 50) * 1e6
        result["submit_us_p99"] = _pct(submit_s, 99) * 1e6
    return result


def _open_verify(run: ServeRun, schedule: OpenSchedule) -> int:
    """Verify every output; returns requests correct within the SLO."""
    images = schedule.all_images()
    service = run.baseline()
    try:
        expected = run.reference(service, images)
    finally:
        service.close()
    warm_row = len(images) - 1
    flags = run.verify(
        lambda image_id: expected[warm_row if image_id < 0 else image_id])
    return sum(1 for position, correct in enumerate(flags)
               if correct and run.latency_s.get(position, np.inf) * 1000.0
               <= OPEN_SLO_MS)


def _cache_delta(before, after) -> tuple:
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits, lookups


def measure_serve_open(seed: int, seconds: float, corrupt: bool,
                       profile: bool = False) -> dict:
    schedule = OpenSchedule(seed, seconds)
    run = ServeRun(OPEN_MODEL, OPEN_CACHE_ENTRIES, schedule.warm_image,
                   corrupt)
    count = len(schedule.offsets)
    split = count // 2 if profile else count
    try:
        run.setup()
        cache0 = run.cluster.cache_stats()
        untraced = open_loop(run, schedule, 0, split, traced=False)
        mid = run.snapshot()
        traced = (open_loop(run, schedule, split, count, traced=True)
                  if profile else None)
        after = run.snapshot() if profile else mid
        peak_rss = vm_hwm_mb() + worker_peak_rss_mb()
        hits, lookups = _cache_delta(cache0, mid["cache"])
        check = {"expected_repeat_share": schedule.repeat_share(0, split),
                 "cache_hit_ratio": hits / max(1, lookups)}
        good_in_slo = _open_verify(run, schedule)
    finally:
        run.close()
    check["matches"] = (abs(check["expected_repeat_share"]
                            - check["cache_hit_ratio"])
                        <= OPEN_HIT_RATIO_TOLERANCE)
    result = {
        "ledger": run.ledger.to_dict(),
        "metrics": {
            "setup_s": (_median(s["setup_s"] for s in run.setups), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "images_per_s": (untraced["images_per_s"], "1/s"),
            "latency_p50_ms": (untraced["latency_p50_ms"], "ms"),
        },
        "detail": {"setups": run.setups, "untraced": untraced,
                   "cache_check": check,
                   "slo_attainment": good_in_slo / max(1, count)},
    }
    if traced is not None:
        hits, lookups = _cache_delta(mid["cache"], after["cache"])
        expected_share = schedule.repeat_share(split, count)
        layers = run.layer_metrics(mid, after)
        layers.update({
            "cluster.submit_us.p50": (traced["submit_us_p50"], "us"),
            "cluster.submit_us.p99": (traced["submit_us_p99"], "us"),
            "cache.hit_ratio": (hits / max(1, lookups), "ratio"),
            "cache.lookups": (lookups, "count"),
            "client.latency_p99_ms": (traced["latency_p99_ms"], "ms"),
            "client.samples": (traced["completed"], "count"),
            "client.slo_attainment": (
                good_in_slo / max(1, count), "ratio"),
            "loadgen.late_ms.p99": (traced["late_p99_ms"], "ms"),
            "loadgen.late_ms.max": (traced["late_max_ms"], "ms"),
            "trace.overhead.serve_open": (
                traced["latency_p50_ms"] / untraced["latency_p50_ms"],
                "ratio"),
        })
        result["layers"] = layers
        result["detail"]["traced"] = traced
        result["detail"]["traced_cache_check"] = {
            "expected_repeat_share": expected_share,
            "cache_hit_ratio": hits / max(1, lookups),
        }
    return result


# ----------------------------------------------------------- serve_bulk

class BulkInputs:
    """Seeded pool of TinyCNN images, walked in a fixed order."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 32])
        self.pool = rng.integers(0, 256, size=(BULK_POOL, 32, 32, 3),
                                 dtype=np.uint8)
        self.warm_image = rng.integers(0, 256, size=(32, 32, 3),
                                       dtype=np.uint8)
        self.order = rng.permutation(BULK_POOL)
        self.next_call = 0

    def call(self) -> np.ndarray:
        """Pool indices of the next call: 64 distinct images."""
        start = self.next_call * BULK_CALL
        self.next_call += 1
        return self.order[(start + np.arange(BULK_CALL)) % BULK_POOL]


def bulk_loop(run: ServeRun, inputs: BulkInputs, submit, seconds: float,
              traced: bool) -> dict:
    """Closed loop: submit 64 images, wait for all, repeat."""
    call_s: List[float] = []
    submit_s: List[float] = []
    completed = 0
    start = time.perf_counter()
    end = start + seconds
    while not call_s or time.perf_counter() < end:
        index = inputs.call()
        batch = inputs.pool[index]
        t0 = time.perf_counter()
        futures = submit(run.model, batch)
        if traced:
            submit_s.append(time.perf_counter() - t0)
        run.ledger.attempted += 1
        outputs = []
        try:
            for future in futures:
                outputs.append(future.result(timeout=RESULT_TIMEOUT_S))
        except Exception as exc:  # noqa: BLE001 - counted as failed
            run.ledger.fail(type(exc).__name__)
            continue
        call_s.append(time.perf_counter() - t0)
        completed += len(outputs)
        run.outputs.append((index, np.stack(outputs)))
    elapsed = time.perf_counter() - start
    result = {
        "calls": len(call_s),
        "images_per_s": completed / elapsed,
        "latency_p50_ms": _median(call_s) * 1000.0,
    }
    if traced:
        result["submit_batch_ms_p50"] = _median(submit_s) * 1000.0
    return result


def measure_serve_bulk(seed: int, seconds: float, corrupt: bool,
                       profile: bool = False) -> dict:
    inputs = BulkInputs(seed)
    run = ServeRun(BULK_MODEL, 0, inputs.warm_image, corrupt)
    phase_s = seconds / 3.0 if profile else seconds
    try:
        run.setup()
        untraced = bulk_loop(run, inputs, run.cluster.submit_batch, phase_s,
                             traced=False)
        mid = run.snapshot()
        traced = inproc = None
        if profile:
            traced = bulk_loop(run, inputs, run.cluster.submit_batch, phase_s,
                               traced=True)
            after = run.snapshot()
        peak_rss = vm_hwm_mb() + worker_peak_rss_mb()
        images = np.concatenate([inputs.pool, inputs.warm_image[None]])
        service = run.baseline()
        try:
            expected = run.reference(service, images)
            if profile:
                inproc = bulk_loop(run, inputs, service.submit_batch, phase_s,
                                   traced=False)
        finally:
            service.close()
    finally:
        run.close()

    def expected_by_id(index):
        return expected[BULK_POOL] if np.ndim(index) == 0 else expected[index]

    run.verify(expected_by_id)
    result = {
        "ledger": run.ledger.to_dict(),
        "metrics": {
            "setup_s": (_median(s["setup_s"] for s in run.setups), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "images_per_s": (untraced["images_per_s"], "1/s"),
            "latency_p50_ms": (untraced["latency_p50_ms"], "ms"),
        },
        "detail": {"setups": run.setups, "untraced": untraced},
    }
    if profile:
        layers = run.layer_metrics(mid, after)
        layers.update({
            "cluster.submit_batch_ms.p50": (traced["submit_batch_ms_p50"],
                                            "ms"),
            "service.inproc_images_per_s": (inproc["images_per_s"], "1/s"),
            "trace.overhead.serve_bulk": (
                untraced["images_per_s"] / traced["images_per_s"], "ratio"),
        })
        result["layers"] = layers
        result["detail"].update(traced=traced, inproc=inproc)
    return result


# ------------------------------------------------------------------ entry

def run_child(workload: str, seed: int, seconds: float, mode: str,
              corrupt: bool) -> dict:
    if mode == "measure":
        if workload == "zoo_offline":
            return measure_zoo(seed, seconds, corrupt)
        if workload == "serve_open":
            return measure_serve_open(seed, seconds, corrupt)
        if workload == "serve_bulk":
            return measure_serve_bulk(seed, seconds, corrupt)
    elif mode == "profile":
        if workload == "zoo_offline":
            return profile_zoo(seed, seconds, corrupt)
        if workload == "serve_open":
            return measure_serve_open(seed, seconds, corrupt, profile=True)
        if workload == "serve_bulk":
            return measure_serve_bulk(seed, seconds, corrupt, profile=True)
    raise SystemExit(f"unknown {mode} workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "profile"),
                        required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output bit before verification "
                             "(the self-test's proof that outputs are "
                             "checked)")
    args = parser.parse_args(argv)
    result = run_child(args.workload, args.seed, args.seconds, args.mode,
                       args.corrupt)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
