"""Smoke test of the ledger: ``python -m pytest benchmarks/ledger -q``.

Not part of tier-1 (``pytest.ini`` collects ``tests/``). Every workload
runs at ``--scale 0.02 --reps 2`` through the same command the benchmark
driver uses, so what is checked here is the real output format.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import manifest  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    DECLARED = json.load(_f)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, seed=101):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--scale", "0.02", "--reps", "2", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_is_the_manifest_and_within_the_contract():
    assert DECLARED == manifest.benchmark_json()
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = ([w["name"] for w in DECLARED["workloads"]]
             + [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in DECLARED["end_to_end"] + DECLARED["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARED["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= DECLARED["run_seconds"] <= 60


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    # correct covers: no failed result, and every virtual-time metric
    # bit-identical in both repetitions.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = values(result)
    assert list(got) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(v > 0 for v in got.values())
    for m in DECLARED["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # Same seed, another process: virtual metrics repeat exactly.
    again = values(run(workload, trace=0))
    for name in manifest.VIRTUAL_NAMES:
        assert again[name] == got[name]
    # Another seed also checks clean.
    other = run(workload, trace=0, seed=7)
    assert other["correct"] and other["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    got = values(result)
    assert list(got) == [m["name"] for m in DECLARED["per_layer"]]
    assert got["trace.unattributed_share"] <= 0.15
    assert got["trace.overhead_ratio"] > 0
    stage_sum = sum(got[f"stage.{s}_ms"] for s in ("produce", "queue", "process", "commit"))
    if stage_sum:
        assert stage_sum == pytest.approx(got["stage.latency_mean_ms"], rel=0.01)
    ladders = {
        "txn_write": ["ladder.write.log_us", "ladder.write.broker_us",
                      "ladder.write.clients_us", "ladder.write.txn_us"],
        "txn_read": ["ladder.read.log_us", "ladder.read.broker_us",
                     "ladder.read.clients_us"],
        "reduce_eos_scalar": ["ladder.streams.passthrough_us",
                              "ladder.streams.reduce_us"],
    }
    rungs = [got[name] for name in ladders.get(workload, [])]
    assert all(r > 0 for r in rungs)
    assert rungs == sorted(rungs)
    assert os.path.exists(os.path.join(HERE, "results", f"trace_{workload}.json"))


def test_selfcheck_negative_controls_fire():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--selfcheck"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selfcheck passed" in done.stdout
