"""Workload abstraction.

A workload drives the application layer: it decides when each process
sends computation messages and to whom. Workloads are event-driven —
each process's next send is scheduled on the kernel — and respect the
process runtime's blocking (a blocked process's sends are deferred by
the runtime itself, so workloads never need to check).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.core.system import MobileSystem


class Workload(ABC):
    """Base class for traffic generators."""

    def __init__(self, system: MobileSystem) -> None:
        self.system = system
        self._running = False
        self.messages_generated = 0

    @property
    def running(self) -> bool:
        """Whether the workload is actively generating traffic."""
        return self._running

    def start(self) -> None:
        """Begin generating traffic."""
        if self._running:
            return
        self._running = True
        self._schedule_initial()

    def stop(self) -> None:
        """Stop generating new traffic (in-flight messages still arrive)."""
        self._running = False

    @abstractmethod
    def _schedule_initial(self) -> None:
        """Schedule the first send of every process (subclass hook)."""

    def _send(self, pid: int, dst_pid: int) -> None:
        """Emit one application message (skipped while disconnected)."""
        process = self.system.processes[pid]
        if process.host.disconnected:
            return
        self.messages_generated += 1
        process.send_computation(dst_pid, payload=self.messages_generated)
