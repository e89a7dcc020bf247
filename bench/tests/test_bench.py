"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _report(workload: str, trace: int) -> tuple[list, dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return lines[:-1], result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_report_prints_every_end_to_end_metric(workload):
    text, result = _report(workload, 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"] for line in text)
    assert any(line.startswith("fail_ratio") for line in text)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_report_has_every_per_layer_metric(workload):
    _text, result = _report(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_corrupted_digest_is_a_failed_check(monkeypatch):
    jobs = workloads.make_inputs("tr-sweep", 3, "tiny")
    assert all(passed for _g, _l, passed, _d in workloads.run("tr-sweep", jobs))
    airy = dict(workloads.GOLDEN["omega_sha256"]["airy"])
    airy[str(jobs[0][1])] = "0" * 64
    monkeypatch.setitem(workloads.GOLDEN["omega_sha256"], "airy", airy)
    checks = workloads.run("tr-sweep", jobs)
    assert [passed for group, _l, passed, _d in checks if group == "airy"] == [False]
    assert [passed for group, _l, passed, _d in checks if group == "cubic"] == [True]


def test_inputs_follow_the_seed():
    for name in (w["name"] for w in SPEC["workloads"]):
        a, b = (repr(workloads.make_inputs(name, 5)) for _ in range(2))
        assert a == b
    assert repr(workloads.make_inputs("rewrite", 5)) != repr(workloads.make_inputs("rewrite", 6))


def test_seed_reaches_only_fixtures_that_declare_it():
    kw = dict(workloads.make_inputs("certify-fast", 5))
    assert "seed" in kw["airy"] and "seed" in kw["homfly"]
    assert "seed" not in kw["rspin3"] and "seed" not in kw["hurwitz-q1"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tr-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_probe_rescales_each_slice_by_its_own_speed():
    probe = SpeedProbe()
    probe.samples = [1.0] * 5 + [2.0] * 5
    # half the slices ran at half speed: 10 slices did the work of 7.5
    assert probe.probe_s == pytest.approx(10 / 7.5)
    probe.samples = [1.0, 1.0, 9.0, 1.0, 1.0]
    assert probe.probe_s == pytest.approx(1.0)  # a lone outlier is smoothed away


def test_probe_samples_while_running_and_stops():
    probe = SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
    finally:
        probe.stop()
    n = len(probe.samples)
    assert n >= 2 and probe.spent_s > 0
    time.sleep(0.25)
    assert len(probe.samples) == n
