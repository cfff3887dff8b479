"""The repository's benchmark: PhoneBit inference and cluster serving.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``zoo_offline``, ``serve_open`` and ``serve_bulk``
(see ``BENCHMARK.json`` for why each exists), or ``all`` to run every
workload in turn.

* ``--trace 0`` measures the named workload untraced, in a fresh interpreter,
  and reports every end-to-end metric of ``BENCHMARK.json``.
* ``--trace 1`` is the traced run.  It profiles every layer whatever the
  workload: ``zoo_offline``, then ``serve_open``, then ``serve_bulk``, each
  in a fresh interpreter with an untraced and a traced phase, and reports
  every per-layer metric.  The layers both serving workloads exercise
  (router, scheduler, transport, worker service, shm store) are reported
  from ``serve_bulk`` on a ``serve_bulk`` run and from ``serve_open`` on
  every other run.

Before anything is timed the kernels are built: the cffi C kernels compile
into ``.bench_build/repro-backends``, a cache this benchmark owns, whose
``tuning/`` directory is emptied so that no tuning record left by an
earlier ``repro tune`` changes the result.  Every output is compared bit
for bit with the layer-by-layer interpreter; a mismatch is a failed
operation and makes the command exit with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record --
host, backend of every plan step, ledgers, diagnostics -- is written to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BACKEND_CACHE = BUILD_DIR / "repro-backends"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

#: Share of ``--seconds`` each workload gets in the traced run.
PROFILE_SHARES = {"zoo_offline": 0.4, "serve_open": 0.3, "serve_bulk": 0.3}
#: Wall-clock limit for one child interpreter, so a hung child can never
#: keep the command past its own time limit.
CHILD_TIMEOUT_S = 170.0
#: Wall-clock limit for building the compiled kernels.
BUILD_TIMEOUT_S = 600.0
#: How long a child's leftover helper processes may take to exit.
GROUP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36
#: Thread-count settings of the BLAS libraries NumPy may be built with.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# --------------------------------------------------------------- host

def _cpu_times() -> list:
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


class HostRecord:
    """What the host was and how busy it was over the run."""

    def __init__(self) -> None:
        self.record = {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "load_avg_start": list(os.getloadavg()),
        }
        self._cpu_start = _cpu_times()

    def finish(self) -> dict:
        end = _cpu_times()
        delta = [b - a for a, b in zip(self._cpu_start, end)]
        # /proc/stat: user nice system idle iowait irq softirq steal ...
        total = sum(delta[:8])
        self.record["load_avg_end"] = list(os.getloadavg())
        self.record["cpu_steal_share"] = delta[7] / total if total else 0.0
        self.record["cpu_busy_share"] = (
            1.0 - (delta[3] + delta[4]) / total if total else 0.0)
        return self.record


# ----------------------------------------------------------- children

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_BACKEND_CACHE"] = str(BACKEND_CACHE)
    for name in ("REPRO_BACKEND", "REPRO_NUM_THREADS", "REPRO_NO_CC"):
        env.pop(name, None)
    # The plan already fans tiles out over nproc threads, and each tile's
    # float matmul would start a BLAS thread team of its own: more threads
    # than CPUs, which measures the scheduler.  BLAS runs one thread here.
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    return env


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still running."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            return True
    return False


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux ``prctl``).

    A child's helper processes outlive it briefly; as their reaper this
    process can wait for them instead of leaving them to init.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_group(pgid: int, grace_s: float = GROUP_GRACE_S) -> None:
    """Wait for the child's helpers (e.g. its resource tracker) to exit.

    They exit on their own once the child is gone; whatever is still
    running after ``grace_s`` is killed, and waited for in turn.
    """
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)
    while True:  # reap the adopted orphans
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _run(command: list, env: dict, timeout: float) -> str:
    """Run one child in its own process group; returns its stdout."""
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{command[1:4]} exceeded {timeout:.0f} s")
    finally:
        _reap_group(process.pid)
    if process.returncode != 0:
        raise BenchError(f"{command[1:4]} exited {process.returncode}:\n"
                         + stderr[-4000:])
    return stdout


def prepare_kernels(env: dict) -> dict:
    """Build the cffi kernels and report backend availability.

    Runs before any timer starts, in its own interpreter, so the compile
    (first run in a checkout only) is never part of a measurement.
    """
    tuning = BACKEND_CACHE / "tuning"
    if tuning.exists():
        shutil.rmtree(tuning)
    BACKEND_CACHE.mkdir(parents=True, exist_ok=True)
    script = (
        "import json, numpy\n"
        "from repro.core import backends\n"
        "from repro.serving.cluster import usable_cpus\n"
        "print(json.dumps({'backends': backends.availability(),\n"
        "                  'usable_cpus': usable_cpus(),\n"
        "                  'numpy': numpy.__version__}))\n"
    )
    out = _run([sys.executable, "-c", script], env, BUILD_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def run_child(workload: str, seed: int, seconds: float, mode: str,
              env: dict, corrupt: bool) -> dict:
    command = [sys.executable, str(BENCH_DIR / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--mode", mode]
    if corrupt:
        command.append("--corrupt")
    out = _run(command, env, CHILD_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


# ------------------------------------------------------------- result

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def select_metrics(expected: list, emitted: dict) -> dict:
    """Exactly the metrics ``expected`` names, with their declared units."""
    metrics = {}
    for entry in expected:
        name = entry["name"]
        if name not in emitted:
            raise BenchError(f"metric {name!r} was not measured")
        value, unit = emitted[name]
        if unit != entry["unit"]:
            raise BenchError(f"metric {name!r} measured in {unit!r}, "
                             f"declared {entry['unit']!r}")
        if not math.isfinite(value):
            raise BenchError(f"metric {name!r} is {value}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(workload: str, args, env: dict, spec: dict) -> dict:
    """One workload: its children, their ledgers and its metrics."""
    if args.trace:
        children = {
            group: run_child(group, args.seed, args.seconds * share,
                             "profile", env, args.corrupt)
            for group, share in PROFILE_SHARES.items()
        }
        primary = "serve_bulk" if workload == "serve_bulk" else "serve_open"
        secondary = "serve_open" if primary == "serve_bulk" else "serve_bulk"
        emitted = {**children["zoo_offline"]["metrics"],
                   **children[secondary]["layers"],
                   **children[primary]["layers"]}
        metrics = select_metrics(spec["per_layer"], emitted)
    else:
        children = {workload: run_child(workload, args.seed, args.seconds,
                                        "measure", env, args.corrupt)}
        metrics = select_metrics(spec["end_to_end"],
                                 children[workload]["metrics"])
    ledgers = [child["ledger"] for child in children.values()]
    # Correct means nothing failed and every operation either failed or had
    # its output compared with the reference.
    return {
        "correct": all(l["failed"] == 0 for l in ledgers)
        and all(l["verified"] + l["failed"] >= l["attempted"]
                for l in ledgers),
        "attempted": sum(l["attempted"] for l in ledgers),
        "failed": sum(l["failed"] for l in ledgers),
        "metrics": metrics,
        "children": children,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PhoneBit inference and serving benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output bit before verification; the "
                             "self-test uses it to prove outputs are checked")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace and args.workload == "all":
        parser.error("the traced run profiles every layer already; name one "
                     "workload")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no PhoneBit sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2

    spec = load_spec()
    env = child_env()
    adopt_orphans()
    host = HostRecord()
    t0 = time.perf_counter()
    try:
        host.record.update(prepare_kernels(env))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args, env, spec)
                   for name in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host_record = host.finish()
    host_record["run_s"] = time.perf_counter() - t0

    BUILD_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    record_path = BUILD_DIR / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump({"args": vars(args), "host": host_record,
                   "results": results}, handle, indent=1)

    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:14.6g} {entry['unit']}")
    print(f"host: {host_record['cpu_model']}, nproc {host_record['nproc']}, "
          f"usable {host_record['usable_cpus']}, load "
          f"{host_record['load_avg_start'][0]:.2f}->"
          f"{host_record['load_avg_end'][0]:.2f}, steal "
          f"{host_record['cpu_steal_share']:.3f}; record {record_path}")

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, result in results.items()
                   for metric, entry in result["metrics"].items()}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
