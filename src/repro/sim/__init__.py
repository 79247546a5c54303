"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timer`.
* :class:`~repro.sim.rng.RandomStreams` — named seeded randomness.
* :class:`~repro.sim.trace.TraceLog` — structured ground-truth log.
"""

from repro.sim.events import Event, Timer
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "RandomStreams",
    "Simulator",
    "Timer",
    "TraceLog",
    "TraceRecord",
]
