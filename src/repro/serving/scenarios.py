"""Versioned, seeded multi-tenant scenario harness for the cluster.

A **scenario** names a set of tenants, each with an SLO class
(``interactive`` / ``standard`` / ``batch``), a model mix and an arrival
curve, and compiles — as a pure function of ``(spec, seed)`` — into a
deterministic per-tenant arrival schedule.  The same seed always yields a
byte-identical schedule (the same replayability contract as
:class:`~repro.serving.faults.FaultPlan`): each tenant draws from its own
``numpy`` ``default_rng`` child stream, so editing one tenant never
perturbs another's arrivals.

Arrival curves:

* ``constant`` — homogeneous Poisson at ``rate``.
* ``diurnal`` — sinusoidal rate from ``rate`` (valley) to ``peak``, one
  period per ``period`` (default: the scenario duration).
* ``flash_crowd`` — Poisson at ``rate``, stepping to ``peak`` during the
  event window ``[at, at+width)`` (fractions of the duration).
* ``burst`` — a **correlated multi-model burst**: outside the window only
  the tenant's primary model sees ``rate``; inside it the *whole* model
  mix spikes to ``peak`` together.
* ``slow_drip`` — evenly spaced background arrivals at ``rate`` with
  small seeded jitter (not Poisson: a drip never clumps).

The runner (:func:`run_scenario`) drives a
:class:`~repro.serving.cluster.ClusterService` through the schedule with
:func:`~repro.serving.loadgen.drive_open_loop`, tagging every request
with its tenant's SLO class so the router's tiered admission (shed
batch before standard before interactive —
:meth:`~repro.serving.router.LeastOutstandingRouter.set_slo_reserves`)
and the cluster's per-class
:class:`~repro.serving.cluster.SLOPolicy` defaults (deadline, hedging)
act on it end to end.  It emits per-tenant and per-class summaries
(goodput, shed share, p50/p99 vs budget, SLO attainment), verifies every
completed output bit-identical to a fault-free single-process baseline
over the same images, and feeds the **measured** per-model traffic shares
into :func:`~repro.serving.router.pin_counts_from_shares` — live rates,
not configured guesses.  Compose with a
:class:`~repro.serving.faults.FaultPlan` via ``chaos=`` to replay a
scenario under seeded fault injection.

Examples
--------
>>> spec = ScenarioSpec.parse(
...     "web,slo=interactive,curve=flash_crowd,rate=40,peak=160;"
...     "jobs,slo=batch,rate=30", name="demo", duration_s=2.0)
>>> [t.name for t in spec.tenants]
['web', 'jobs']
>>> schedule = spec.compile(seed=7)
>>> schedule.digest() == spec.compile(seed=7).digest()  # replayable
True
>>> schedule.digest() == spec.compile(seed=8).digest()
False
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_kv, format_table
from repro.serving.loadgen import (
    RequestLedger,
    await_rollout,
    baseline_outputs,
    drive_open_loop,
    rollout_trigger,
    synthetic_images,
)
from repro.serving.metrics import percentile_ms
from repro.serving.router import (
    SLO_CLASSES,
    default_slo_reserves,
    pin_counts_from_shares,
    validate_slo,
)

__all__ = [
    "BUNDLED_SCENARIOS",
    "SCENARIO_CURVES",
    "SCENARIO_VERSION",
    "ClassSummary",
    "PassAggregate",
    "ScenarioResult",
    "ScenarioSchedule",
    "ScenarioSpec",
    "TenantSchedule",
    "TenantSpec",
    "TenantSummary",
    "aggregate_passes",
    "resolve_scenario",
    "run_scenario",
    "run_scenario_passes",
]

#: Supported arrival-curve kinds.
SCENARIO_CURVES = ("constant", "diurnal", "flash_crowd", "burst", "slow_drip")

#: Spec-format version.  Part of every tenant's rng child-stream key, so
#: bumping it deliberately reshuffles all schedules — an old golden file
#: can never silently validate a new-format spec.
SCENARIO_VERSION = 1


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an SLO class, a model mix and an arrival curve.

    ``models`` is an ordered ``((name, weight), ...)`` mix (a mapping is
    accepted and normalized); the first entry is the tenant's *primary*
    model — the only one a ``burst`` tenant exercises outside its burst
    window.  ``rate`` is the baseline offered rate in req/s; ``peak``
    (default ``4 × rate``) is the diurnal crest / event-window rate.
    ``at`` and ``width`` place the flash-crowd/burst event window as
    fractions of the scenario duration.  ``budget_ms`` overrides the SLO
    class's default latency budget for attainment accounting.
    """

    name: str
    slo: str = "standard"
    models: Tuple[Tuple[str, float], ...] = (("MicroCNN", 1.0),)
    curve: str = "constant"
    rate_rps: float = 50.0
    peak_rps: Optional[float] = None
    at: float = 0.4
    width: float = 0.2
    period_s: Optional[float] = None
    budget_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        validate_slo(self.slo)
        if self.curve not in SCENARIO_CURVES:
            raise ValueError(
                f"unknown arrival curve {self.curve!r}; "
                f"expected one of {SCENARIO_CURVES}"
            )
        models = self.models
        if isinstance(models, Mapping):
            models = tuple(models.items())
        models = tuple((str(name), float(weight)) for name, weight in models)
        if not models:
            raise ValueError("tenant model mix must be non-empty")
        if any(weight <= 0 for _, weight in models):
            raise ValueError("model mix weights must be positive")
        object.__setattr__(self, "models", models)
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.peak_rps is not None and self.peak_rps < self.rate_rps:
            raise ValueError("peak_rps must be at least rate_rps")
        if not 0.0 <= self.at <= 1.0 or not 0.0 < self.width <= 1.0:
            raise ValueError("at must be in [0, 1] and width in (0, 1]")
        if self.period_s is not None and self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.budget_ms is not None and self.budget_ms <= 0:
            raise ValueError("budget_ms must be positive")

    @property
    def effective_peak_rps(self) -> float:
        return self.peak_rps if self.peak_rps is not None else 4.0 * self.rate_rps

    @property
    def model_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.models)

    def to_dict(self) -> dict:
        data = {
            "name": self.name, "slo": self.slo,
            "models": {name: weight for name, weight in self.models},
            "curve": self.curve, "rate_rps": self.rate_rps,
        }
        for key in ("peak_rps", "period_s", "budget_ms"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.curve in ("flash_crowd", "burst"):
            data["at"] = self.at
            data["width"] = self.width
        return data


def _parse_model_mix(text: str) -> Tuple[Tuple[str, float], ...]:
    """``"MicroCNN*3+TinyCNN*1"`` → ``(("MicroCNN", 3.0), ("TinyCNN", 1.0))``."""
    mix: List[Tuple[str, float]] = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty model entry in mix {text!r}")
        if "*" in part:
            name, _, weight = part.partition("*")
            mix.append((name.strip(), float(weight)))
        else:
            mix.append((part, 1.0))
    return tuple(mix)


_TENANT_FIELD_KEYS = {
    "slo": "slo", "curve": "curve", "rate": "rate_rps", "peak": "peak_rps",
    "at": "at", "width": "width", "period": "period_s",
    "budget_ms": "budget_ms",
}

_TENANT_JSON_KEYS = ("name", "slo", "models", "curve", "rate_rps",
                     "peak_rps", "at", "width", "period_s", "budget_ms")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, versioned multi-tenant workload."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    duration_s: float = 4.0
    version: int = SCENARIO_VERSION

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.tenants:
            raise ValueError("scenario must declare at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in scenario: {names}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.version != SCENARIO_VERSION:
            raise ValueError(
                f"unsupported scenario version {self.version}; this build "
                f"compiles version {SCENARIO_VERSION}"
            )

    # -------------------------------------------------------------- parsing
    @classmethod
    def parse(cls, text: str, name: str = "custom",
              duration_s: float = 4.0) -> "ScenarioSpec":
        """Compile a spec string: ``;``-separated tenants, each a bare
        tenant name followed by ``,key=value`` fields.

        Keys: ``slo``, ``model`` (mix grammar ``A*3+B*1``), ``curve``,
        ``rate``, ``peak``, ``at``, ``width``, ``period``, ``budget_ms``.

        >>> spec = ScenarioSpec.parse("web,slo=interactive,rate=80")
        >>> (spec.tenants[0].slo, spec.tenants[0].rate_rps)
        ('interactive', 80.0)
        """
        tenants: List[TenantSpec] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields = [piece.strip() for piece in chunk.split(",")]
            tenant_name = fields[0]
            if not tenant_name or "=" in tenant_name:
                raise ValueError(
                    f"tenant chunk {chunk!r} must start with a bare tenant "
                    "name (got a key=value field first)"
                )
            kwargs: dict = {}
            for piece in fields[1:]:
                if "=" not in piece:
                    raise ValueError(
                        f"malformed tenant field {piece!r} (expected "
                        "key=value)"
                    )
                key, _, value = piece.partition("=")
                key, value = key.strip(), value.strip()
                if key == "model":
                    kwargs["models"] = _parse_model_mix(value)
                elif key in _TENANT_FIELD_KEYS:
                    attr = _TENANT_FIELD_KEYS[key]
                    kwargs[attr] = value if attr in ("slo", "curve") \
                        else float(value)
                else:
                    raise ValueError(
                        f"unknown tenant key {key!r}; expected one of "
                        f"{('model',) + tuple(_TENANT_FIELD_KEYS)}"
                    )
            tenants.append(TenantSpec(name=tenant_name, **kwargs))
        if not tenants:
            raise ValueError("scenario spec names no tenants")
        return cls(name=name, tenants=tuple(tenants),
                   duration_s=float(duration_s))

    @classmethod
    def from_json(cls, source) -> "ScenarioSpec":
        """Build a spec from a JSON file path, JSON text, or mapping."""
        if isinstance(source, Mapping):
            data = source
        elif isinstance(source, (str, os.PathLike)):
            if isinstance(source, str) and source.lstrip().startswith("{"):
                data = json.loads(source)
            else:
                with open(source) as fh:
                    data = json.load(fh)
        else:
            raise TypeError(
                f"expected a mapping, JSON text or path, got {type(source)}"
            )
        tenants: List[TenantSpec] = []
        for entry in data.get("tenants", ()):
            unknown = sorted(set(entry) - set(_TENANT_JSON_KEYS))
            if unknown:
                raise ValueError(
                    f"unknown tenant keys {unknown}; expected a subset of "
                    f"{_TENANT_JSON_KEYS}"
                )
            kwargs = dict(entry)
            if "models" in kwargs and isinstance(kwargs["models"], Mapping):
                kwargs["models"] = tuple(kwargs["models"].items())
            tenants.append(TenantSpec(**kwargs))
        return cls(
            name=str(data.get("name", "custom")),
            tenants=tuple(tenants),
            duration_s=float(data.get("duration_s", 4.0)),
            version=int(data.get("version", SCENARIO_VERSION)),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name, "version": self.version,
            "duration_s": self.duration_s,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    # ------------------------------------------------------------ compiling
    def model_names(self) -> Tuple[str, ...]:
        """All models the scenario touches, first-appearance order."""
        ordered: Dict[str, None] = {}
        for tenant in self.tenants:
            for name in tenant.model_names:
                ordered.setdefault(name, None)
        return tuple(ordered)

    def compile(self, seed: int, duration_s: Optional[float] = None,
                rate_scale: float = 1.0) -> "ScenarioSchedule":
        """Compile the deterministic arrival schedule for ``seed``.

        A pure function of ``(spec, seed, duration, rate_scale)`` — the
        wall clock is never consulted.  Tenant ``i`` draws from the child
        streams ``default_rng((seed, version, i))`` (arrival times) and
        ``default_rng((seed, version, i, 1))`` (model mix), mirroring
        :class:`~repro.serving.faults.FaultPlan`'s per-rule streams, so
        same seed → byte-identical schedule, per tenant and overall.
        """
        duration = self.duration_s if duration_s is None else float(duration_s)
        if duration <= 0:
            raise ValueError("duration_s must be positive")
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        tenants: List[TenantSchedule] = []
        for index, tenant in enumerate(self.tenants):
            rng_times = np.random.default_rng(
                (int(seed), int(self.version), index))
            rng_models = np.random.default_rng(
                (int(seed), int(self.version), index, 1))
            times, in_event = _arrival_times(tenant, rng_times, duration,
                                             rate_scale)
            model_index = _assign_models(tenant, rng_models, times, in_event)
            tenants.append(TenantSchedule(tenant=tenant, times=times,
                                          model_index=model_index))
        return ScenarioSchedule(
            spec=self, seed=int(seed), duration_s=duration,
            rate_scale=float(rate_scale), tenants=tuple(tenants),
        )


def _event_window(tenant: TenantSpec, duration: float) -> Tuple[float, float]:
    start = tenant.at * duration
    return start, min(duration, start + tenant.width * duration)


def _rate_at(tenant: TenantSpec, times: np.ndarray, duration: float,
             rate: float, peak: float) -> np.ndarray:
    if tenant.curve == "diurnal":
        period = tenant.period_s if tenant.period_s is not None else duration
        phase = 2.0 * np.pi * times / period
        return rate + (peak - rate) * 0.5 * (1.0 - np.cos(phase))
    if tenant.curve in ("flash_crowd", "burst"):
        start, end = _event_window(tenant, duration)
        return np.where((times >= start) & (times < end), peak, rate)
    return np.full(times.shape, rate)


def _arrival_times(tenant: TenantSpec, rng: np.random.Generator,
                   duration: float, rate_scale: float) -> tuple:
    """Seeded arrival times (sorted, seconds) and the in-event mask."""
    rate = tenant.rate_rps * rate_scale
    peak = tenant.effective_peak_rps * rate_scale
    if tenant.curve == "slow_drip":
        count = max(1, int(round(rate * duration)))
        spacing = duration / count
        base = (np.arange(count) + 0.5) * spacing
        jitter = rng.uniform(-0.25, 0.25, size=count) * spacing
        times = np.sort(np.clip(base + jitter, 0.0,
                                np.nextafter(duration, 0.0)))
        return times, np.zeros(count, dtype=bool)
    # Non-homogeneous Poisson by thinning: candidates at the envelope
    # rate, each kept with probability rate(t)/envelope — vectorized and
    # purely rng-driven, so the schedule replays byte-identically.
    envelope = peak if tenant.curve in ("diurnal", "flash_crowd", "burst") \
        else rate
    count = int(rng.poisson(envelope * duration))
    candidates = np.sort(rng.uniform(0.0, duration, size=count))
    rates = _rate_at(tenant, candidates, duration, rate, peak)
    keep = rng.uniform(0.0, 1.0, size=count) * envelope < rates
    times = candidates[keep]
    if tenant.curve in ("flash_crowd", "burst"):
        start, end = _event_window(tenant, duration)
        in_event = (times >= start) & (times < end)
    else:
        in_event = np.zeros(times.shape, dtype=bool)
    return times, in_event


def _assign_models(tenant: TenantSpec, rng: np.random.Generator,
                   times: np.ndarray, in_event: np.ndarray) -> np.ndarray:
    weights = np.asarray([weight for _, weight in tenant.models], float)
    weights = weights / weights.sum()
    index = rng.choice(len(weights), size=len(times), p=weights)
    if tenant.curve == "burst":
        # Correlated multi-model burst: the full mix spikes together only
        # inside the window; background traffic is the primary model.
        index = np.where(in_event, index, 0)
    return index.astype(np.int64)


# ---------------------------------------------------------------------------
# compiled schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantSchedule:
    """One tenant's compiled arrivals: times (s) and model-mix indices."""

    tenant: TenantSpec
    times: np.ndarray
    model_index: np.ndarray

    @property
    def offered(self) -> int:
        return int(len(self.times))

    def model_counts(self) -> Dict[str, int]:
        names = self.tenant.model_names
        counts = np.bincount(self.model_index, minlength=len(names))
        return {name: int(count)
                for name, count in zip(names, counts) if count}


@dataclass(frozen=True)
class ScenarioSchedule:
    """A compiled scenario: deterministic per-tenant arrival streams."""

    spec: ScenarioSpec
    seed: int
    duration_s: float
    rate_scale: float
    tenants: Tuple[TenantSchedule, ...]

    @property
    def offered(self) -> int:
        return sum(tenant.offered for tenant in self.tenants)

    def digest(self) -> str:
        """SHA-256 over every tenant's identity, times and model draws —
        byte-identical replay means digest-identical replay."""
        hasher = hashlib.sha256()
        hasher.update(f"{self.spec.name}\x00{self.spec.version}\x00"
                      f"{self.duration_s!r}\x00{self.rate_scale!r}"
                      .encode())
        for tenant in self.tenants:
            hasher.update(f"{tenant.tenant.name}\x00{tenant.tenant.slo}"
                          .encode())
            hasher.update(np.ascontiguousarray(tenant.times).tobytes())
            hasher.update(np.ascontiguousarray(tenant.model_index).tobytes())
        return hasher.hexdigest()

    def merged(self) -> tuple:
        """Time-ordered merge: ``(offsets, tenant_index, model_names)``."""
        if not self.tenants:
            return np.array([]), np.array([], dtype=np.int64), []
        times = np.concatenate([t.times for t in self.tenants])
        tenant_index = np.concatenate([
            np.full(t.offered, i, dtype=np.int64)
            for i, t in enumerate(self.tenants)
        ])
        model_index = np.concatenate([t.model_index for t in self.tenants])
        order = np.argsort(times, kind="stable")
        times = times[order]
        tenant_index = tenant_index[order]
        model_index = model_index[order]
        names = [self.tenants[t].tenant.model_names[m]
                 for t, m in zip(tenant_index, model_index)]
        return times, tenant_index, names

    def per_class_offered(self) -> Dict[str, int]:
        counts = {name: 0 for name in SLO_CLASSES}
        for tenant in self.tenants:
            counts[tenant.tenant.slo] += tenant.offered
        return counts

    def summary(self) -> dict:
        """Deterministic schedule summary — the golden-file payload."""
        return {
            "scenario": self.spec.name,
            "version": self.spec.version,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "rate_scale": self.rate_scale,
            "digest": self.digest(),
            "offered": self.offered,
            "per_class": {name: count
                          for name, count in self.per_class_offered().items()
                          if count},
            "tenants": [
                {
                    "tenant": t.tenant.name,
                    "slo": t.tenant.slo,
                    "curve": t.tenant.curve,
                    "offered": t.offered,
                    "first_ms": (round(float(t.times[0]) * 1000.0, 3)
                                 if t.offered else None),
                    "last_ms": (round(float(t.times[-1]) * 1000.0, 3)
                                if t.offered else None),
                    "models": t.model_counts(),
                }
                for t in self.tenants
            ],
        }


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------

def _bundled() -> Dict[str, ScenarioSpec]:
    return {
        "steady_mix": ScenarioSpec(
            name="steady_mix", duration_s=4.0, tenants=(
                TenantSpec("web", slo="interactive", rate_rps=60.0),
                TenantSpec("app", slo="standard", rate_rps=40.0),
                TenantSpec("jobs", slo="batch", rate_rps=40.0),
            )),
        "diurnal": ScenarioSpec(
            name="diurnal", duration_s=4.0, tenants=(
                TenantSpec("web", slo="interactive", curve="diurnal",
                           rate_rps=20.0, peak_rps=140.0),
                TenantSpec("jobs", slo="batch", rate_rps=30.0),
            )),
        "flash_crowd": ScenarioSpec(
            name="flash_crowd", duration_s=4.0, tenants=(
                TenantSpec("web", slo="interactive", curve="flash_crowd",
                           rate_rps=30.0, peak_rps=120.0, at=0.35,
                           width=0.25),
                TenantSpec("app", slo="standard", rate_rps=30.0),
                TenantSpec("jobs", slo="batch", rate_rps=240.0),
            )),
        "multi_burst": ScenarioSpec(
            name="multi_burst", duration_s=4.0, tenants=(
                TenantSpec("mixed", slo="standard", curve="burst",
                           models=(("MicroCNN", 2.0), ("TinyCNN", 1.0)),
                           rate_rps=40.0, peak_rps=200.0, at=0.3,
                           width=0.2),
                TenantSpec("web", slo="interactive", rate_rps=30.0),
            )),
        "slow_drip": ScenarioSpec(
            name="slow_drip", duration_s=4.0, tenants=(
                TenantSpec("bg", slo="batch", curve="slow_drip",
                           rate_rps=12.0),
                TenantSpec("web", slo="interactive", rate_rps=30.0),
            )),
    }


#: Named, versioned workload configs shipped with the harness.
BUNDLED_SCENARIOS: Mapping[str, ScenarioSpec] = _bundled()


def resolve_scenario(text: str, duration_s: Optional[float] = None
                     ) -> ScenarioSpec:
    """Resolve a CLI scenario argument to a spec.

    Accepts, in order: a bundled scenario name, a ``.json`` spec file
    path, or an inline spec string (anything containing ``=``).  Raises
    ``ValueError`` with the bundled names on anything else.
    """
    text = text.strip()
    if text in BUNDLED_SCENARIOS:
        spec = BUNDLED_SCENARIOS[text]
        if duration_s is not None:
            spec = ScenarioSpec(name=spec.name, tenants=spec.tenants,
                                duration_s=float(duration_s),
                                version=spec.version)
        return spec
    if text.endswith(".json") or os.path.exists(text):
        spec = ScenarioSpec.from_json(text)
        if duration_s is not None:
            spec = ScenarioSpec(name=spec.name, tenants=spec.tenants,
                                duration_s=float(duration_s),
                                version=spec.version)
        return spec
    if "=" in text:
        return ScenarioSpec.parse(
            text, duration_s=4.0 if duration_s is None else duration_s)
    raise ValueError(
        f"unknown scenario {text!r}: not a bundled name "
        f"({', '.join(sorted(BUNDLED_SCENARIOS))}), not a .json path, and "
        "not an inline spec (tenant,key=value,...)"
    )


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantSummary:
    """One tenant's pass outcome."""

    tenant: str
    slo: str
    offered: int
    completed: int
    shed: int
    deadline_expired: int
    failed: int
    within_budget: int
    budget_ms: float
    p50_ms: float
    p99_ms: float
    goodput_rps: float

    @property
    def attainment(self) -> float:
        """Fraction of *offered* requests completed within budget —
        sheds, expiries and failures all count against the SLO."""
        return self.within_budget / self.offered if self.offered else 1.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class ClassSummary:
    """Per-SLO-class aggregation across a pass's tenants."""

    slo: str
    offered: int
    completed: int
    shed: int
    deadline_expired: int
    failed: int
    within_budget: int
    #: This class's fraction of every shed in the pass (0 with no sheds).
    shed_share: float

    @property
    def attainment(self) -> float:
        return self.within_budget / self.offered if self.offered else 1.0


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario pass (see :func:`run_scenario`).

    ``ledger`` holds the pass's accounting, grouped by tenant name:
    ``offered == completed + shed + deadline_expired + failed`` holds for
    every tenant (:class:`~repro.serving.loadgen.RequestLedger`).
    """

    scenario: str
    seed: int
    duration_s: float
    rate_scale: float
    digest: str
    ledger: RequestLedger
    tenants: Tuple[TenantSummary, ...]
    classes: Tuple[ClassSummary, ...]
    bit_identical: bool
    #: Measured per-model request counts (the live pinning signal).
    model_shares: Dict[str, float]
    #: ``pin_counts_from_shares`` over the measured shares and fleet size.
    pin_suggestion: Optional[Dict[str, int]]
    #: Pin layout actually applied by ``rebalance_pins=True`` (``None``
    #: when the cluster runs unpinned).
    pins_applied: Optional[Dict[str, int]]
    retries: int
    hedges: int
    respawns: int
    fault_events: tuple = ()
    #: Terminal (or last observed) phase of a live rollout driven through
    #: the pass via ``rollout_model`` (``None`` when no rollout ran).
    rollout_phase: Optional[str] = None

    def class_summary(self, slo: str) -> ClassSummary:
        for summary in self.classes:
            if summary.slo == slo:
                return summary
        raise KeyError(f"no {slo!r} traffic in this scenario")

    def tenant_table(self) -> str:
        return format_table(
            ["tenant", "slo", "offered", "done", "shed", "expired", "fail",
             "p50 (ms)", "p99 (ms)", "budget", "attain %", "goodput"],
            [
                [t.tenant, t.slo, t.offered, t.completed, t.shed,
                 t.deadline_expired, t.failed, f"{t.p50_ms:.1f}",
                 f"{t.p99_ms:.1f}", f"{t.budget_ms:.0f}",
                 f"{100.0 * t.attainment:.1f}", f"{t.goodput_rps:.1f}"]
                for t in self.tenants
            ],
            title=f"Scenario {self.scenario} (seed {self.seed})",
        )

    def class_table(self) -> str:
        return format_table(
            ["class", "offered", "done", "shed", "shed share %",
             "expired", "fail", "attain %"],
            [
                [c.slo, c.offered, c.completed, c.shed,
                 f"{100.0 * c.shed_share:.1f}", c.deadline_expired,
                 c.failed, f"{100.0 * c.attainment:.1f}"]
                for c in self.classes
            ],
            title="Per-class summary",
        )

    def table(self) -> str:
        rows = self.ledger.summary_rows() + [
            ("bit identical", self.bit_identical),
            ("retries / hedges", f"{self.retries} / {self.hedges}"),
            ("schedule digest", self.digest[:16]),
            ("wall time (s)", self.ledger.wall_s),
        ]
        return "\n".join([
            self.tenant_table(), "", self.class_table(), "",
            format_kv(rows, title="Scenario totals"),
        ])


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

#: Distinct images per model that a scenario pass cycles through.
SCENARIO_IMAGE_POOL = 32

#: Fraction of the schedule after which ``rollout_model`` is republished.
SCENARIO_ROLLOUT_AT = 0.5


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    workers: int = 3,
    duration_s: Optional[float] = None,
    rate_scale: float = 1.0,
    chaos=None,
    policies: Optional[Mapping] = None,
    interactive_floor: Optional[int] = None,
    slo_reserves: Optional[Mapping[str, int]] = None,
    retry=None,
    rebalance_pins: bool = False,
    rollout_model: Optional[str] = None,
    rollout_config=None,
    **cluster_kwargs,
) -> ScenarioResult:
    """Drive a cluster through one compiled scenario pass.

    Builds a :class:`~repro.serving.cluster.ClusterService` with
    SLO-tiered admission (``slo_reserves``, default derived from the
    admission window and ``interactive_floor`` via
    :func:`~repro.serving.router.default_slo_reserves`) and the per-class
    policy table (``policies`` overrides merge over
    :data:`~repro.serving.cluster.DEFAULT_SLO_POLICIES`), then offers
    the schedule's arrivals through
    :func:`~repro.serving.loadgen.drive_open_loop` under each tenant's
    SLO class, cycling each model over :data:`SCENARIO_IMAGE_POOL`
    images.  ``chaos`` composes a :class:`~repro.serving.faults
    .FaultPlan` into the same pass.  Every completed output is verified
    bit-identical to a fault-free single-process baseline over the same
    images.

    ``rollout_model`` names one scenario model to republish mid-pass: a
    byte-distinct but output-identical v2 artifact is published once the
    arrival cursor crosses :data:`SCENARIO_ROLLOUT_AT` of the schedule,
    and the canary/promote/commit sequence rides the scenario's own
    traffic.  The pass's bit-identical verification is unchanged — a
    rollout that perturbs even one answer fails the whole scenario —
    and the rollout's final phase lands in ``ScenarioResult
    .rollout_phase``.
    """
    from repro.models.zoo import build_phonebit_network, get_serving_config
    from repro.serving.cluster import (
        DEFAULT_SLO_POLICIES,
        ClusterService,
        RetryPolicy,
    )

    schedule = spec.compile(seed, duration_s=duration_s,
                            rate_scale=rate_scale)
    offsets, tenant_index, model_names = schedule.merged()
    policy_table = dict(DEFAULT_SLO_POLICIES)
    if policies:
        policy_table.update(policies)

    max_batch = int(cluster_kwargs.get("max_batch_size", 32))
    max_outstanding = int(cluster_kwargs.get("max_outstanding")
                          or 2 * max_batch)
    cluster_kwargs.setdefault("max_outstanding", max_outstanding)
    if slo_reserves is None:
        slo_reserves = default_slo_reserves(max_outstanding,
                                            interactive_floor)
    models = spec.model_names()
    cluster_kwargs.setdefault("models", models)
    images = {
        model: synthetic_images(get_serving_config(model).input_shape,
                                SCENARIO_IMAGE_POOL, seed=seed)
        for model in models
    }

    if rollout_model is not None:
        matches = [m for m in models if m.lower() == rollout_model.lower()]
        if not matches:
            raise ValueError(
                f"rollout_model {rollout_model!r} is not a scenario model; "
                f"scenario models: {models}")
        rollout_model = matches[0]
        # Same weights as the cluster's published artifact, stamped so the
        # serialized bytes (and therefore the digest) differ: a v2 release
        # of an unchanged model, the safe-rollout base case.
        rollout_network = build_phonebit_network(
            get_serving_config(rollout_model))
        rollout_network.metadata["release"] = "scenario-v2"

    model_cursor = {model: 0 for model in models}

    def arrival(i: int) -> tuple:
        tenant = spec.tenants[int(tenant_index[i])]
        model = model_names[i]
        image_i = model_cursor[model] % SCENARIO_IMAGE_POOL
        model_cursor[model] += 1
        return tenant.name, model, image_i, images[model][image_i], tenant.slo

    cluster = ClusterService(
        workers=workers,
        retry=RetryPolicy() if retry is None else retry,
        faults=chaos,
        slo_reserves=slo_reserves,
        slo_policies=policy_table,
        **cluster_kwargs,
    )
    try:
        on_arrival = None
        if rollout_model is not None:
            on_arrival = rollout_trigger(cluster, rollout_model,
                                         rollout_network, rollout_config,
                                         SCENARIO_ROLLOUT_AT, len(offsets))
        ledger = drive_open_loop(cluster, offsets, arrival,
                                 on_arrival=on_arrival)
        status = (None if rollout_model is None
                  else await_rollout(cluster, rollout_model))
        fault_events = tuple(cluster.fault_events)
        detail = cluster.cluster_report()
        model_shares = cluster.measured_model_shares()
        pins_applied = cluster.rebalance_pinning() if rebalance_pins else None
        expected = baseline_outputs(cluster, images)
    finally:
        cluster.close()

    tenant_summaries = []
    for tenant in spec.tenants:
        group = ledger.group(tenant.name)
        budget_ms = (tenant.budget_ms if tenant.budget_ms is not None
                     else policy_table[tenant.slo].latency_budget_ms)
        latencies = group.latencies_s
        tenant_summaries.append(TenantSummary(
            tenant=tenant.name, slo=tenant.slo, offered=group.offered,
            completed=group.completed, shed=group.shed,
            deadline_expired=group.deadline_expired, failed=group.failed,
            within_budget=sum(1 for s in latencies
                              if s * 1000.0 <= budget_ms),
            budget_ms=float(budget_ms),
            p50_ms=percentile_ms(latencies, 50.0),
            p99_ms=percentile_ms(latencies, 99.0),
            goodput_rps=group.goodput_rps,
        ))
    total_shed = ledger.shed
    class_summaries = []
    for slo in SLO_CLASSES:
        members = [t for t in tenant_summaries if t.slo == slo]
        if not members:
            continue
        class_shed = sum(t.shed for t in members)
        class_summaries.append(ClassSummary(
            slo=slo,
            offered=sum(t.offered for t in members),
            completed=sum(t.completed for t in members),
            shed=class_shed,
            deadline_expired=sum(t.deadline_expired for t in members),
            failed=sum(t.failed for t in members),
            within_budget=sum(t.within_budget for t in members),
            shed_share=(class_shed / total_shed) if total_shed else 0.0,
        ))
    pin_suggestion = (
        pin_counts_from_shares(model_shares, workers=max(1, workers))
        if model_shares else None
    )
    return ScenarioResult(
        scenario=spec.name, seed=int(seed),
        duration_s=schedule.duration_s, rate_scale=schedule.rate_scale,
        digest=schedule.digest(), ledger=ledger,
        tenants=tuple(tenant_summaries), classes=tuple(class_summaries),
        bit_identical=ledger.bit_identical(expected),
        model_shares=model_shares,
        pin_suggestion=pin_suggestion, pins_applied=pins_applied,
        retries=detail.retries, hedges=detail.hedges,
        respawns=detail.respawns, fault_events=fault_events,
        rollout_phase=None if status is None else status["phase"],
    )


# ---------------------------------------------------------------------------
# pass-over-pass aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PassAggregate:
    """Pass-over-pass summary stats for one SLO class."""

    slo: str
    passes: int
    offered: int
    completed: int
    shed: int
    attainment_mean: float
    attainment_min: float
    attainment_max: float


def aggregate_passes(results: Sequence[ScenarioResult]
                     ) -> Tuple[PassAggregate, ...]:
    """Aggregate per-class attainment across passes (mean/min/max)."""
    if not results:
        raise ValueError("aggregate_passes needs at least one result")
    aggregates: List[PassAggregate] = []
    for slo in SLO_CLASSES:
        rows = [result.class_summary(slo) for result in results
                if any(c.slo == slo for c in result.classes)]
        if not rows:
            continue
        attainments = [row.attainment for row in rows]
        aggregates.append(PassAggregate(
            slo=slo, passes=len(rows),
            offered=sum(row.offered for row in rows),
            completed=sum(row.completed for row in rows),
            shed=sum(row.shed for row in rows),
            attainment_mean=float(np.mean(attainments)),
            attainment_min=float(min(attainments)),
            attainment_max=float(max(attainments)),
        ))
    return tuple(aggregates)


def passes_table(aggregates: Sequence[PassAggregate]) -> str:
    return format_table(
        ["class", "passes", "offered", "done", "shed", "attain mean %",
         "min %", "max %"],
        [
            [a.slo, a.passes, a.offered, a.completed, a.shed,
             f"{100.0 * a.attainment_mean:.1f}",
             f"{100.0 * a.attainment_min:.1f}",
             f"{100.0 * a.attainment_max:.1f}"]
            for a in aggregates
        ],
        title="Pass-over-pass",
    )


def run_scenario_passes(spec: ScenarioSpec, passes: int = 2, seed: int = 0,
                        **kwargs) -> tuple:
    """Run ``passes`` seeded passes (pass ``p`` uses ``seed + p``) and
    aggregate: returns ``(results, aggregates)``."""
    if passes < 1:
        raise ValueError("passes must be at least 1")
    results = [run_scenario(spec, seed=seed + index, **kwargs)
               for index in range(passes)]
    return results, aggregate_passes(results)
