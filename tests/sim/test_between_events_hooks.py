"""Keyed between-events hooks: multiplexing, cadences, pickling.

``set_between_events_hook`` lets several consumers (the snapshotter
under ``"snapshot"``, the timeseries sampler under ``"timeseries"``)
share the kernel's single hook slot; each still fires at its own
``check_every`` cadence.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


def _load(sim: Simulator, n: int) -> None:
    for i in range(n):
        sim.schedule(float(i + 1), lambda: None)


def test_single_hook_fires_at_cadence(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append(sim.events_processed), 3)
    _load(sim, 12)
    sim.run_until_idle()
    assert fired == [3, 6, 9, 12]


def test_two_hooks_fire_at_own_cadences(sim):
    counts = {"a": 0, "b": 0}
    sim.set_between_events_hook("a", lambda: counts.update(a=counts["a"] + 1), 2)
    sim.set_between_events_hook("b", lambda: counts.update(b=counts["b"] + 1), 3)
    _load(sim, 12)
    sim.run_until_idle()
    assert counts == {"a": 6, "b": 4}


def test_snapshot_hook_is_the_snapshot_key(sim):
    fired = []
    sim.set_snapshot_hook(lambda: fired.append("snap"), 4)
    sim.set_between_events_hook("timeseries", lambda: fired.append("ts"), 4)
    _load(sim, 8)
    sim.run_until_idle()
    # registration order within a shared firing point is deterministic
    assert fired == ["snap", "ts", "snap", "ts"]
    sim.set_snapshot_hook(None)
    fired.clear()
    _load(sim, 4)
    sim.run_until_idle()
    assert fired == ["ts"]


def test_removing_one_hook_keeps_the_other(sim):
    counts = {"a": 0, "b": 0}
    sim.set_between_events_hook("a", lambda: counts.update(a=counts["a"] + 1), 1)
    sim.set_between_events_hook("b", lambda: counts.update(b=counts["b"] + 1), 1)
    _load(sim, 5)
    sim.run_until_idle()
    sim.set_between_events_hook("a", None)
    _load(sim, 5)
    sim.run_until_idle()
    assert counts == {"a": 5, "b": 10}


def test_hook_can_uninstall_itself_mid_run(sim):
    fired = []

    def hook() -> None:
        fired.append(sim.events_processed)
        sim.set_between_events_hook("once", None)

    sim.set_between_events_hook("once", hook, 2)
    _load(sim, 10)
    sim.run_until_idle()
    assert fired == [2]


def test_reinstalling_a_key_replaces_its_cadence(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append("slow"), 100)
    sim.set_between_events_hook("a", lambda: fired.append("fast"), 1)
    _load(sim, 3)
    sim.run_until_idle()
    assert fired == ["fast"] * 3


def test_check_every_must_be_positive(sim):
    with pytest.raises(ValueError):
        sim.set_between_events_hook("a", lambda: None, 0)


def test_hooks_do_not_travel_through_pickle(sim):
    sim.set_between_events_hook("a", lambda: None, 2)
    sim.set_between_events_hook("b", lambda: None, 3)
    restored = pickle.loads(pickle.dumps(sim))
    assert restored._hooks == {}
    assert restored._snap_hook is None
    fired = []
    restored.set_between_events_hook("a", lambda: fired.append(1), 1)
    _load(restored, 2)
    restored.run_until_idle()
    assert fired == [1, 1]


# -- the hook countdown inside the run loop -----------------------------
def test_stop_on_the_event_a_hook_is_due_fires_then_halts(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append(sim.events_processed), 3)
    _load(sim, 6)
    sim.schedule(2.5, sim.stop)  # the third event of the run
    sim.run()
    assert fired == [3]
    assert sim.events_processed == 3
    assert sim.now == 2.5


def test_countdown_carries_over_between_runs(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append(sim.events_processed), 3)
    _load(sim, 10)
    with pytest.raises(SimulationError):
        sim.run(max_events=4)
    assert fired == [3]
    sim.run_until_idle()
    # due at 6 and 9, not restarted at 4 + 3
    assert fired == [3, 6, 9]


def test_hook_installed_from_a_callback_fires_at_its_cadence(sim):
    fired = []

    def install() -> None:
        sim.set_between_events_hook(
            "late", lambda: fired.append(sim.events_processed), 2
        )
        sim.stop()

    _load(sim, 10)
    sim.schedule(3.0, install)  # dispatched as the fourth event
    sim.run()
    assert sim.events_processed == 4
    assert fired == []
    sim.run_until_idle()
    assert fired == [6, 8, 10]


def test_max_events_guard_raises_with_a_hook_armed(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append(sim.events_processed), 2)

    def forever() -> None:
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=7)
    assert sim.events_processed == 7
    assert fired == [2, 4, 6]
    assert sim.pending_events == 1


def test_run_until_keeps_the_countdown(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append(sim.now), 4)
    _load(sim, 12)
    sim.run(until=5.5)
    assert fired == [4.0]
    assert sim.now == 5.5
    sim.run(until=6.5)
    assert fired == [4.0]
    sim.run_until_idle()
    assert fired == [4.0, 8.0, 12.0]
