"""Smoke-size self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit in both modes, and that the correctness checks trip on a corrupted
result (and make the command exit nonzero).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cpals  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

SMOKE = ["--seed", "3", "--seconds", "1", "--scale", "0.05"]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_catalog_matches_benchmark_json():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == \
        [(name, unit) for name, unit, _idle in run.PER_LAYER]
    assert s["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace)] + SMOKE,
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    s = spec()
    expected = s["per_layer"] if trace else s["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in expected), result["metrics"]


def test_fit_checks_trip_on_corruption():
    fits = {"coo": [0.5, 0.6], "hicoo": [0.5, 0.6]}
    assert cpals.fits_agree(fits)
    fits["hicoo"] = [0.5, 0.6 + 2e-9]
    assert not cpals.fits_agree(fits)
    assert not cpals.fits_agree({"coo": [float("nan")], "alto": [0.1]})
    ref = [0.25, 0.5]
    assert cpals.fits_identical(list(ref), ref)
    assert not cpals.fits_identical([0.25, np.nextafter(0.5, 1.0)], ref)
    assert not cpals.fits_identical([0.25], ref)


def test_digest_check_trips_on_corruption():
    specs = {"t": serve.spec_for("random", (30, 20, 10), 200, "hicoo", 5,
                                 1.0)}
    oracle = serve.Oracle(specs)
    frame = {"op": "mttkrp", "tensor": "t", "mode": 1, "rank": 4,
             "seed": 9, "id": 0}
    good = serve.Event(0.0, 0, 0, frame, "job", replied=1.0,
                       reply={"ok": True, "digest": oracle.digest(frame)})
    bad = serve.Event(0.0, 0, 0, dict(frame, id=1), "job", replied=1.0,
                      reply={"ok": True, "digest": "0" * 64})
    refused = serve.Event(0.0, 0, 0, dict(frame, id=2), "job", replied=1.0,
                          reply={"ok": False, "error": {"status": 429}})
    lost = serve.Event(0.0, 0, 0, dict(frame, id=3), "job")
    failures = serve.check([good, bad, refused, lost], oracle)
    assert [e.ok for e in (good, bad, refused, lost)] == \
        [True, False, False, False]
    assert len(failures) == 3


def test_corrupted_fit_fails_the_command(monkeypatch, capsys):
    import repro.cpd.cp_als as cp_mod

    real = cp_mod.cp_als

    def corrupt(tensor, *args, **kwargs):
        res = real(tensor, *args, **kwargs)
        if tensor.format_name == "csf":
            res.fits[-1] += 1e-6
        return res

    monkeypatch.setattr(cp_mod, "cp_als", corrupt)
    rc = run.main(["--workload", "cpals-cold", "--trace", "0"] + SMOKE)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] > 0


def test_corrupted_reply_fails_the_command(monkeypatch, capsys):
    import repro.serve.daemon as daemon_mod

    real = daemon_mod.run_job

    def corrupt(op, *args, **kwargs):
        out = real(op, *args, **kwargs)
        if op == "ttm":
            out = dict(out, digest="f" * 64)
        return out

    monkeypatch.setattr(daemon_mod, "run_job", corrupt)
    rc = run.main(["--workload", "serve-steady", "--trace", "0"] + SMOKE)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    (bare / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cpals-cold",
         "--trace", "0"] + SMOKE, cwd=bare, capture_output=True, text=True,
        timeout=60)
    assert out.returncode not in (0, 1)
    assert out.stdout == ""


def test_stop_children_ends_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    import common

    shm = shared_memory.SharedMemory(create=True, size=64)  # starts it
    shm.close()
    shm.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    assert common.stop_children(timeout_s=30) == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(pid, os.WNOHANG)
