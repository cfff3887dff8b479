"""Short self-test of the benchmark (about a minute on a 2-CPU host).

    python3 perfbench/selftest.py

Checks that:

* ``BENCHMARK.json`` keeps to its schema and ``perfbench/metrics.json``
  maps every metric it names to a layer and a workload;
* a short untraced run of every workload emits every end-to-end metric
  with its declared unit, and compares every output with the interpreter;
* a short traced run emits every per-layer metric with its unit, and the
  ``serve_open`` cache hit ratio matches the repeat share of its schedule;
* a flipped output bit is caught: the run reports one failed operation,
  ``correct: false``, and exits with status 1;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "1"


def run(args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py")]
    return subprocess.run(command + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def last_json(process) -> dict:
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def record(args) -> dict:
    path = ROOT / ".bench_build" / "results" / (
        f"{args[1]}-seed{args[3]}-trace{args[7]}.json")
    with open(path) as handle:
        return json.load(handle)


def check_metric(name, entry, unit):
    assert entry["unit"] == unit, (name, entry, unit)
    value = entry["value"]
    assert isinstance(value, (int, float)) and math.isfinite(value), (name,
                                                                       entry)


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert spec["paths"] == ["perfbench"]
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"]), workload
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower"), metric
    with open(BENCH_DIR / "metrics.json") as handle:
        mapping = json.load(handle)
    assert set(mapping["end_to_end"]) == {m["name"]
                                          for m in spec["end_to_end"]}
    assert set(mapping["per_layer"]) == {m["name"] for m in spec["per_layer"]}


def check_ledgers(children: dict) -> None:
    """Every operation's output was compared, and none failed."""
    for name, child in children.items():
        ledger = child["ledger"]
        assert ledger["failed"] == 0, (name, ledger)
        assert ledger["verified"] == ledger["attempted"] > 0, (name, ledger)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    check_spec(spec)
    workloads = [w["name"] for w in spec["workloads"]]
    print("schema: ok")

    args = ["--workload", "all", "--seed", "1", "--seconds", SECONDS,
            "--trace", "0"]
    process = run(args)
    assert process.returncode == 0, process.stderr[-3000:]
    result = last_json(process)
    assert result["correct"] and result["failed"] == 0, result
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in workloads for m in spec["end_to_end"]}
    assert set(result["metrics"]) == set(expected), sorted(result["metrics"])
    for name, unit in expected.items():
        check_metric(name, result["metrics"][name], unit)
        assert result["metrics"][name]["value"] > 0, name
    for outcome in record(args)["results"].values():
        check_ledgers(outcome["children"])
    print(f"untraced: {len(expected)} metrics, outputs verified")

    args = ["--workload", "serve_open", "--seed", "1", "--seconds", "3",
            "--trace", "1"]
    process = run(args)
    assert process.returncode == 0, process.stderr[-3000:]
    result = last_json(process)
    assert result["correct"], result
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(result["metrics"]) == set(expected), (
        set(expected) ^ set(result["metrics"]))
    for name, unit in expected.items():
        check_metric(name, result["metrics"][name], unit)
    children = record(args)["results"]["serve_open"]["children"]
    check_ledgers(children)
    check = children["serve_open"]["detail"]["cache_check"]
    assert check["matches"], check
    print(f"traced: {len(expected)} metrics, outputs verified, cache hit "
          f"ratio {check['cache_hit_ratio']:.3f} matches repeat share "
          f"{check['expected_repeat_share']:.3f}")

    for workload in ("zoo_offline", "serve_open", "serve_bulk"):
        process = run(["--workload", workload, "--seed", "1", "--seconds",
                       SECONDS, "--trace", "0", "--corrupt"])
        assert process.returncode == 1, (workload, process.returncode,
                                         process.stderr[-3000:])
        result = last_json(process)
        assert not result["correct"] and result["failed"] == 1, result
    print("corrupted output: caught on zoo, serve_open and serve_bulk")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = run(["--workload", "serve_open", "--seed", "1", "--seconds",
                   SECONDS, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert process.returncode != 0, process.stdout
    assert '"metrics"' not in process.stdout, process.stdout
    print("bare directory: exits", process.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
