"""Scenario goldens, the scenario registry, and the census's rules.

The chaos, migrate, capacity and autoscale tests elsewhere compare two
runs with each other; the goldens here pin the full result payload of
one run per kind as a :func:`tests.goldens.digest`, so a refactor of the
scenario plumbing must reproduce every field, not just agree with
itself.  The four echo-scenario runs are pinned a second time without
the simulator's event counts, which a change to how timers sit in the
event heap may move while every simulated timestamp stays put.  The runs
come from :mod:`tests.scenario_runs`, shared with the tests that already
make them.
"""

import inspect

import pytest

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.ctrl.envelope import Envelope
from repro.errors import EXIT_CODES
from repro.net.fabric import Network
from repro.scenario import SCENARIOS, census
from repro.sim import Simulator
from tests import scenario_runs
from tests.census import assert_census_clean
from tests.goldens import digest

#: name -> (cached run, digest of its full payload).
SCENARIO_GOLDENS = {
    "chaos-nsm-crash": (
        lambda: scenario_runs.chaos(11, "nsm-crash", 0.2),
        "fcf1423fea2855f5e052d18b2130665fc65324504bd63160f4bdef33b77fe2be"),
    "chaos-nsm-stall": (
        lambda: scenario_runs.chaos(23, "nsm-stall", 0.2),
        "582752d97723acc111ddbd5ba3e88a62a5f37120dbe9e168f3ded8d6993da894"),
    "chaos-overload": (
        lambda: scenario_runs.chaos(7, "overload", 0.25),
        "82d7dbdb0774f77c766d765ce20e81b4b22894c145861e43ea6e03dbd7d3ef5a"),
    "migrate": (
        lambda: scenario_runs.migration(0, 100, 0.12),
        "b057ead776d8d1e25799526c7d728601a0ec16d1354fcadb97297b2b442e766b"),
    "capacity-mux": (
        lambda: scenario_runs.capacity("mux", 0, 0.004, 3),
        "4affebc641018512869d9f5ed71c1e66d934a36dcbe79fbb11716c62d510eab1"),
    "autoscale-clean": (
        lambda: scenario_runs.autoscale(0, False),
        "9521711b6373f6cb521ab338f5062133db87c6df796478e6c5e99d640e01425d"),
    "autoscale-chaos": (
        lambda: scenario_runs.autoscale(0, True),
        "c4133faad22437045aaed1bd6a7f1c9e8a0fc9ee451468d366b1c7b8c36cb370"),
}


#: name -> (cached (payload, timeline), digest of both without the
#: ``switch_fingerprint`` and the timeline's ``sim.events_*`` counts).
TIMELINE_GOLDENS = {
    "chaos-nsm-crash": (
        lambda: scenario_runs.chaos_run(11, "nsm-crash", 0.2)[::2],
        "f12a5512bf9db4254c028f6109cb2006dbf09aff3911899563a1bceb8557aa57"),
    "chaos-nsm-stall": (
        lambda: scenario_runs.chaos_run(23, "nsm-stall", 0.2)[::2],
        "f220640a1f7aafb3318cfc0288ec91c16c17b164bac527327e088adb9cd07d07"),
    "chaos-overload": (
        lambda: scenario_runs.chaos_run(7, "overload", 0.25)[::2],
        "3857d574190ea89aafeb05f82c8f82b82d410ddbe5ea8477c6da252fd8fb8022"),
    "migrate": (
        lambda: scenario_runs.migration_run(0, 100, 0.12),
        "e92df4df281b6204d8d64b1f3433945aaafd9c9b823431132c599fc6c164f6ae"),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_GOLDENS))
def test_scenario_payload_golden(name):
    run, expected = SCENARIO_GOLDENS[name]
    assert digest(run()) == expected


def without_event_counts(payload, timeline):
    """The payload and its fingerprinted timeline, minus the fingerprint
    and the simulator's event counts."""
    payload = {key: value for key, value in payload.items()
               if key != "switch_fingerprint"}
    return payload, dict(timeline, sim={"now": timeline["sim"]["now"]})


@pytest.mark.parametrize("name", sorted(TIMELINE_GOLDENS))
def test_scenario_timeline_golden_without_event_counts(name):
    run, expected = TIMELINE_GOLDENS[name]
    assert digest(without_event_counts(*run())) == expected


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_declared_params_are_runner_params(kind):
    scenario = SCENARIOS[kind]
    accepted = inspect.signature(scenario.runner()).parameters
    assert set(scenario.params) <= set(accepted)
    assert {flag.dest for flag in scenario.flags} <= set(scenario.params)


def test_graceless_capacity_search_fails_with_an_exit_code():
    # The capacity verb used to fail a graceless 2x-NDR probe with a code
    # missing from EXIT_CODES, so Envelope.fail raised ValueError.
    graceful = {"pass": False, "goodput_ratio": 0.5, "jain_fairness": 0.95,
                "hung_ops": 0}
    (failure,) = SCENARIOS["capacity"].contract_failures(
        {"params": {}, "result": {"leaks": [], "graceful": graceful}})
    envelope = Envelope("capacity").fail(failure.code, failure.message(1))
    assert envelope.exit_code == EXIT_CODES["invariant"]
    assert envelope.failures[0]["message"].startswith(
        "GRACELESS DEGRADATION at 2xNDR (run 1): goodput ratio 0.5")


def test_quarantined_nsm_context_is_fenced_not_failed():
    """nsm-stall quarantines nsm-a while it still holds the client's
    first connection.  Failover retired its table entry and the client
    closed its fd; quarantine never touches the NSM, so the context
    stays, counted as fenced."""
    payload, found, _ = scenario_runs.chaos_run(23, "nsm-stall", 0.2)
    assert payload["quarantined"]
    assert found.leaks() == []
    assert found.fenced == 1


def test_census_fails_on_an_entry_removed_behind_servicelib():
    pool_before = NQE_POOL.outstanding
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim))
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    vm = host.add_vm("vm", vcpus=1, nsm=nsm)
    api = host.socket_api(vm)

    def app():
        listener = yield from api.socket()
        yield from api.bind(listener, 80)
        yield from api.listen(listener)

    vm.spawn(app())
    sim.run(until=0.01)
    assert_census_clean(host, pool_before)
    (entry,) = host.coreengine.table.entries_for_vm(vm.vm_id)
    host.coreengine.table.remove_vm(entry.vm_tuple)
    assert census(host, pool_before).imbalances == [
        f"nsm0: context {entry.nsm_socket_id} has no table entry for "
        f"{entry.vm_tuple}"]
