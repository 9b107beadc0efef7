"""Smoke test of the benchmark itself (not of the program).

Outside ``testpaths``, so tier-1 never collects it; run it with
``python3 -m pytest bench/test_smoke.py``.  Everything runs with ``--smoke``
op counts: it checks names, units, determinism and the failure path, never
a timing.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from summary import run_child  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in CONTRACT["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Counts that must repeat exactly when the same seed runs twice.
EXACT = (
    "client.rpcs_per_op",
    "dispatch.flushes_per_op",
    "dispatch.rpcs_per_flush",
    "wire.binary.bytes_per_read",
    "wire.json.bytes_per_read",
    "wire.json.bytes_per_write_1k",
    "explore.grid_states",
)


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, *extra: str):
    """One ``--smoke`` run in a fresh process: (exit code, result or None, record)."""
    code, result, _ = run_child(workload, seed, 1, trace, "--smoke", *extra)
    if not result:
        return code, None, None
    record = json.loads((BENCH_DIR / "out" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    return code, result, record


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert NAMES == list(WORKLOADS), "BENCHMARK.json and workloads.py name the same workloads"
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    every = CONTRACT["workloads"] + CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [entry["name"] for entry in every]
    assert len(names) == len(set(names)), "a name is used once"
    for entry in every:
        assert NAME_RE.match(entry["name"]), entry["name"]
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT_RE.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in CONTRACT["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [entry for entry in CONTRACT["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_same_seed_same_schedule():
    for workload in WORKLOADS.values():
        if workload.kind != "service":
            continue
        first = make_ops(workload, 7, "round-0", 500)
        assert first == make_ops(workload, 7, "round-0", 500)
        assert first != make_ops(workload, 8, "round-0", 500)
        assert first != make_ops(workload, 7, "round-1", 500)
        writes = sum(1 for is_write, _, _ in first if is_write)
        assert abs(writes / 500 - workload.write_share) < 0.08
        assert all(len(value) == workload.value_bytes for is_write, _, value in first if is_write)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_emitted_once_with_units(workload):
    code, result, record = run(workload, 1, 0)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {entry["name"]: entry["unit"] for entry in CONTRACT["end_to_end"]}
    assert {name: got["unit"] for name, got in result["metrics"].items()} == declared
    assert all(got["value"] > 0 for got in result["metrics"].values()), "never 0"
    stamp = record["stamp"]
    for field in ("nproc", "python", "numpy", "loop_driver", "codec", "seed", "round_ops",
                  "solo_reads", "solo_writes", "yardstick_wall"):
        assert field in stamp, field
    assert stamp["loop_driver"] in ("asyncio", "none"), "stock loop only, never uvloop"


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics_emitted_once_with_units(workload):
    code, result, _ = run(workload, 1, 1)
    assert code == 0 and result["correct"] is True
    declared = {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}
    assert {name: got["unit"] for name, got in result["metrics"].items()} == declared
    if WORKLOADS[workload].benign and WORKLOADS[workload].kind == "service":
        for name in ("client.fallbacks_per_kop", "client.timeouts_per_kop", "net.reconnects"):
            assert result["metrics"][name]["value"] == 0, name


def test_counts_repeat_exactly_and_another_seed_runs_clean():
    _, first, _ = run("inproc-read", 1, 1)
    _, again, _ = run("inproc-read", 1, 1, "--src", str(ROOT / "src"))  # same run, uncached
    for name in EXACT:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    _, mc_first, mc_record = run("mc-batch", 1, 0)
    _, mc_again, mc_record_again = run("mc-batch", 1, 0, "--src", str(ROOT / "src"))
    assert mc_first["attempted"] == mc_again["attempted"]
    assert mc_record["verdict"]["estimates"] == mc_record_again["verdict"]["estimates"]
    code, other, _ = run("inproc-read", 2, 0)
    assert code == 0 and other["correct"] is True


def test_a_wrong_history_expectation_fails_the_run():
    code, result, _ = run("inproc-read", 1, 0, "--flip-history")
    assert code != 0
    assert result["correct"] is False
