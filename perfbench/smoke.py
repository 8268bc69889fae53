#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Runs every workload named in BENCHMARK.json at its tiny size, untraced and
traced, and checks that the result line names exactly the metrics
BENCHMARK.json lists, each with its unit; that no op fails; that a second
run with the same seed repeats every count, byte and airtime metric
exactly; and that perfbench/layers.json covers every metric.

Usage, from the root of the repository:  python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics whose value is a count or a deterministic quantity of the
# program, which must repeat exactly for one seed.
DETERMINISTIC_UNITS = {"count", "bytes"}
DETERMINISTIC_NAMES = {"airtime_ms_per_op"}


def run(workload, trace, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(workload, trace, expected, seed):
    first = run(workload, trace, seed)
    label = f"{workload} trace={trace}"
    assert set(first) == {"correct", "attempted", "failed", "metrics"}, label
    assert first["correct"] is True, f"{label}: not correct: {first}"
    assert first["failed"] == 0 and first["attempted"] >= 1, f"{label}: {first}"
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == expected, f"{label}: metrics {got} != {expected}"
    second = run(workload, trace, seed)
    for name, unit in expected.items():
        if unit in DETERMINISTIC_UNITS or name in DETERMINISTIC_NAMES:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, f"{label}: {name} did not repeat for seed {seed}: {a} vs {b}"
    print(f"ok  {label}: {len(expected)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    assert set(layers["workloads"]) == set(workloads), "layers.json workloads"
    fed = set(layers["reported_beside"])
    for metric, by_workload in layers["feeds"].items():
        assert metric in end_to_end, f"layers.json feeds unknown metric {metric}"
        if isinstance(by_workload, str):
            by_workload = layers["feeds"][by_workload]
        for workload, names in by_workload.items():
            assert workload in workloads, f"layers.json: unknown workload {workload}"
            unknown = set(names) - set(per_layer)
            assert not unknown, f"layers.json: {metric}/{workload} names {unknown}"
            fed.update(names)
    assert set(layers["feeds"]) == set(end_to_end), "every end-to-end metric has feeds"
    assert fed == set(per_layer), f"layer metrics feeding nothing: {set(per_layer) - fed}"
    assert set(layers["probes"]) <= set(per_layer), "layers.json probes"

    for workload in workloads:
        check(workload, 0, end_to_end, seed=7)
        check(workload, 1, per_layer, seed=7)
    print("smoke: all workloads print every metric with its unit")


if __name__ == "__main__":
    main()
