"""The benchmark's own tests: one tiny-size run per workload.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from repro import Simulator

from perfbench import calibrate, harness
from perfbench.tracer import Tracer
from perfbench.workloads import (WORKLOADS, Bulk, Echo, Fleet, Ledger,
                                 ShortConn)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny(name):
    """A few-connection / few-VM version of each workload."""
    wl = {
        "echo_64b": lambda: Echo(client_vms=1, conns_per_vm=2),
        "bulk_8x64k": lambda: Bulk(streams=2, episode=1e-3),
        "short_conn_64b": lambda: ShortConn(clients=2),
        "fleet_10k": lambda: Fleet(vms=40),
    }[name]()
    wl.setup_reps = 2
    return wl


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_metric_and_passes_checks(name, tmp_path):
    store = harness.FingerprintStore(str(tmp_path / "fp.json"), "test")
    result, detail = harness.run_untraced(tiny(name), seed=3, seconds=0.3,
                                          store=store)
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        harness.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["held_out_seed"] == harness.HELD_OUT_SEED


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_repeats(name, tmp_path):
    fp1, failures1 = harness._checked_pass(tiny(name), 5)
    fp2, failures2 = harness._checked_pass(tiny(name), 5)
    assert failures1 == failures2 == []
    assert fp1 == fp2
    store = harness.FingerprintStore(str(tmp_path / "fp.json"), "test")
    assert store.check(tiny(name), 5, fp1) is None
    assert store.check(tiny(name), 5, fp2) is None
    changed = dict(fp1, events_processed=fp1["events_processed"] + 1)
    assert "differs" in store.check(tiny(name), 5, changed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_keeps_fingerprint_and_removes_wrappers(name):
    from repro.core.guestlib import GuestLib
    from repro.stack.tcp.engine import TcpConnection, TcpEngine

    before = (dict(vars(GuestLib)), dict(vars(TcpEngine)),
              dict(vars(TcpConnection)))
    untraced_fp, _ = harness._checked_pass(tiny(name), 7)
    result, detail = harness.run_traced(tiny(name), seed=7, seconds=0.2)
    assert detail["failures"] == []
    assert result["correct"]
    assert detail["fingerprint"] == untraced_fp
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        harness.PER_LAYER)
    shares = sum(result["metrics"][f"{layer}.share"]["value"]
                 for layer in ("sim", "mem.ring", "mem.hugepages",
                               "core.guestlib", "core.coreengine",
                               "core.sharding", "core.conn_table",
                               "core.servicelib", "stack.tcp", "net", "app",
                               "gc", "other"))
    assert shares == pytest.approx(1.0, rel=1e-6)
    after = (dict(vars(GuestLib)), dict(vars(TcpEngine)),
             dict(vars(TcpConnection)))
    assert after == before


def test_reference_scale_and_pauses():
    assert calibrate.scale(2 * calibrate.NOMINAL_S) == pytest.approx(0.5)
    assert calibrate.scale(4 * calibrate.NOMINAL_S, 0.5) == pytest.approx(0.5)
    assert calibrate.sample(3) > 0
    ledger = Ledger(Simulator())
    started = ledger.begin()
    paused = time.perf_counter()
    time.sleep(0.05)
    ledger.paused += time.perf_counter() - paused
    ledger.end(started)
    assert 0 <= ledger.wall[0] < 0.05


def test_tracer_reports_leftovers():
    from repro.mem.ring import SpscRing

    tracer = Tracer()
    tracer.install()
    tracer.stop()
    original = tracer._patched[0]
    assert tracer.leftovers() != []
    tracer.uninstall()
    assert tracer.leftovers() == []
    assert "__init__" in vars(SpscRing)
    assert original[0].__dict__.get(original[1]) is original[2]


def test_benchmark_json_names_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER)
    for wl in WORKLOADS.values():
        assert next(w["why"] for w in spec["workloads"]
                    if w["name"] == wl.name) == wl.why


def test_run_without_program_sources_fails(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo_64b",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
