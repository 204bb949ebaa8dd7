"""Toy-size smoke of each workload: its design property holds.

Small 32x32 inputs and three timed calls; the traced phase gives the
per-layer counts the properties are stated in.
"""

import asyncio

import pytest

from perfbench.workloads import CALL_REQUESTS, measure

FLEET_SELF = (
    "fleet.encode.self_s",
    "fleet.decode.self_s",
    "fleet.frontend.self_s",
    "fleet.wait_s",
)


@pytest.fixture
def run(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))
    monkeypatch.setenv("REPRO_TUNING_DB", str(tmp_path / "tuning-db"))

    def run(workload: str) -> dict:
        params = {
            "workload": workload,
            "seed": 3,
            "size": 32,
            "calls": 3,
            "trace": 1,
            "mode": "measure",
            "work_dir": str(tmp_path),
        }
        try:
            return measure(params)
        finally:
            asyncio.set_event_loop_policy(None)

    return run


def _values(result: dict) -> dict:
    return {name: value for name, (value, _unit) in result["metrics"].items()}


def test_serve_miss_really_misses(run):
    result = run("serve-miss")
    metrics = _values(result)
    assert result["correct"]
    assert result["attempted"] == 2 * 3 * CALL_REQUESTS
    assert metrics["serve.result_cache.hit_ratio"] <= 0.05
    assert metrics["engine.launch.calls"] > 0
    assert metrics["perforate.calls"] > 0


def test_serve_hit_launches_nothing_once_warm(run):
    result = run("serve-hit")
    metrics = _values(result)
    assert result["correct"]
    assert metrics["perforate.calls"] == 0
    assert metrics["engine.launch.calls"] == 0
    assert metrics["serve.result_cache.hit_ratio"] == 1.0


def test_fleet_hit_serves_everything_through_the_front_end(run):
    result = run("fleet-hit")
    metrics = _values(result)
    assert result["correct"]
    assert result["failed"] == 0
    fleet_s = sum(metrics[name] for name in FLEET_SELF)
    assert fleet_s > 0.5 * metrics["ledger.wall_s"]
    assert metrics["fleet.shard_balance"] > 0
