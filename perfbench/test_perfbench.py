"""Tests of the benchmark itself: output shape, names, units and counts.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced, with a one-second
measuring window (one or two passes), so the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace, seed=5):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stderr[-3000:]
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] < line["attempted"]
    return line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    line = result_of(run(ROOT, workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name
    # the only failures are the kept amplitude-3 shifts: 4 in each pass of 40
    if workload == "equiv-solve":
        assert line["failed"] * 10 == line["attempted"]
    else:
        assert line["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    line = result_of(run(ROOT, workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_refuses_to_run_without_the_package():
    """In a directory holding only BENCHMARK.json and the benchmark's files."""
    stripped = os.path.join(HERE, "out", "stripped-copy")
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        for path in SPEC["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(stripped, path),
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
        proc = run(stripped, WORKLOADS[0], trace=0)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
