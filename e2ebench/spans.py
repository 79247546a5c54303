"""Outside-in layer ledger: spans around calls into each ``repro`` layer.

Nothing in ``src/repro`` is edited. :meth:`Tracer.install` replaces a
fixed list of public entry points (class attributes and module
functions) with timing wrappers, and attaches a
:class:`~repro.obs.profiler.KernelProfiler` to every simulator built
afterwards, so each dispatched event callback becomes a span of the
layer that defines it.

A span takes its start and end from ``perf_counter`` and pushes a frame
on one stack (the simulator is single-threaded), so its parent is the
frame below it. Self time is the span's duration minus the part its
child spans cover, which is the sum of the children's durations. Spans
are aggregated as they close, per layer and per name, so memory stays
flat on runs of millions of calls.

Time inside a root frame that no layer span covers, plus the self time
of callbacks from modules outside every layer, is ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the layers, named after the ``src/repro`` packages they cover
LAYERS = (
    "sim",
    "sim.trace",
    "net",
    "checkpointing",
    "core",
    "workload",
    "obs",
    "analysis",
    "campaign",
)

#: module prefix -> layer, most specific first. There is deliberately no
#: catch-all: a module missing here maps to ``None`` and the self-test
#: fails, so new code cannot silently fall into some layer.
_LAYER_PREFIXES = (
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.export", "sim.trace"),
    # the per-process random streams feed only the traffic generators
    ("repro.sim.rng", "workload"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.checkpointing", "checkpointing"),
    ("repro.core", "core"),
    ("repro.errors", "core"),
    ("repro.workload", "workload"),
    ("repro.obs", "obs"),
    ("repro.analysis", "analysis"),
    ("repro.campaign", "campaign"),
)


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer of a ``repro`` module name, or ``None`` if unmapped."""
    if not module:
        return None
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


#: (module, owner, attribute, layer, tally): the entry points wrapped in
#: spans. ``owner`` is a class name, or ``None`` for a module function;
#: ``tally`` names a counter that sums the call's return value. The list
#: holds the calls that cross into a layer from outside it; calls inside
#: one layer (host and MSS sends, MSS routing, ``schedule`` delegating
#: to ``schedule_at``) would add wrapper cost and no attribution.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[str]], ...] = (
    # kernel: every schedule (heap push); the loop, Simulator.run, is
    # wrapped by Tracer.install as the frame events dispatch under
    ("repro.sim.kernel", "Simulator", "schedule_at", "sim", None),
    # trace log
    ("repro.sim.trace", "TraceLog", "record", "sim.trace", None),
    ("repro.sim.trace", "TraceLog", "debug", "sim.trace", None),
    # network: routing, hosts, channels, broadcast fan-out
    ("repro.net.network", "MobileNetwork", "__init__", "net", None),
    ("repro.net.network", "MobileNetwork", "add_mh", "net", None),
    ("repro.net.network", "MobileNetwork", "send_from_process", "net", None),
    ("repro.net.network", "MobileNetwork", "broadcast_system", "net", "broadcast_fanout"),
    ("repro.net.channel", "FifoChannel", "send", "net", None),
    # checkpointing: the mutable protocol's handlers, storage
    ("repro.checkpointing.mutable", "MutableCheckpointProcess", "__init__", "checkpointing", None),
    ("repro.checkpointing.mutable", "MutableCheckpointProcess", "initiate", "checkpointing", None),
    ("repro.checkpointing.mutable", "MutableCheckpointProcess", "on_send_computation", "checkpointing", None),
    ("repro.checkpointing.mutable", "MutableCheckpointProcess", "on_receive_computation", "checkpointing", None),
    ("repro.checkpointing.mutable", "MutableCheckpointProcess", "on_system_message", "checkpointing", None),
    ("repro.checkpointing.storage", "StableStorage", "store", "checkpointing", None),
    # core: system build, process runtime, runner
    ("repro.core.system", "MobileSystem", "__init__", "core", None),
    ("repro.core.process", "AppProcess", "__init__", "core", None),
    ("repro.core.process", "AppProcess", "send_computation", "core", None),
    ("repro.core.process", "AppProcess", "on_message", "core", None),
    ("repro.core.runner", "ExperimentRunner", "__init__", "core", None),
    ("repro.core.runner", "ExperimentRunner", "run", "core", None),
    ("repro.core.results", "RunResult", "to_dict", "core", None),
    # workload generators (and their random streams)
    ("repro.workload.base", "Workload", "start", "workload", None),
    ("repro.workload.point_to_point", "PointToPointWorkload", "__init__", "workload", None),
    ("repro.workload.group", "GroupWorkload", "__init__", "workload", None),
    ("repro.sim.rng", "RandomStreams", "stream", "workload", None),
    # metrics registry instruments
    ("repro.obs.registry", "Counter", "inc", "obs", None),
    ("repro.obs.registry", "Gauge", "set", "obs", None),
    ("repro.obs.registry", "Gauge", "max", "obs", None),
    ("repro.obs.registry", "Histogram", "observe", "obs", None),
    ("repro.obs.registry", "MetricsRegistry", "counter", "obs", None),
    ("repro.obs.registry", "MetricsRegistry", "snapshot", "obs", None),
    # result collection (imported by name into the runner)
    ("repro.analysis.metrics", None, "committed_stats", "analysis", None),
    ("repro.core.runner", None, "committed_stats", "analysis", None),
    # campaign engine and store
    ("repro.campaign.engine", None, "execute_point", "campaign", None),
    ("repro.campaign.engine", None, "build_point_runtime", "campaign", None),
    ("repro.campaign.store", "ResultStore", "append", "campaign", None),
)

#: span names whose inclusive time the ledger reports on its own
BUILD_SPANS = (
    "MobileSystem.__init__",
    "PointToPointWorkload.__init__",
    "GroupWorkload.__init__",
    "ExperimentRunner.__init__",
)


class Tracer:
    """Span stack plus per-layer and per-name aggregates for one process."""

    def __init__(self) -> None:
        self._restore: List[Tuple[Any, str, Any]] = []
        self.profiler: Any = None
        #: layer -> [self seconds, calls]
        self._layers: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS}
        #: span name -> [calls, inclusive seconds]
        self._names: Dict[str, List[float]] = {}
        self.tallies: Dict[str, float] = {}
        #: self seconds of callbacks whose module maps to no layer
        self.unmapped: Dict[str, float] = {}
        self.unattributed_s = 0.0
        # Child seconds of each open span; the base entry absorbs spans
        # that run outside any root.
        self._stack: List[float] = [0.0]
        #: the open loop frame's child seconds at the last dispatch
        self._mark = 0.0
        self._layer_cache: Dict[str, Optional[str]] = {}

    def reset(self) -> None:
        """Zero every aggregate (a forked worker starts each point here).

        Containers are cleared in place: the installed wrappers hold
        references to them.
        """
        for stat in (*self._layers.values(), *self._names.values()):
            stat[0] = stat[1] = 0
        self.tallies.clear()
        self.unmapped.clear()
        self.unattributed_s = 0.0
        self._stack[:] = [0.0]
        self._mark = 0.0
        prof = self.profiler
        if prof is not None:
            prof.dispatched = prof.pushes = prof.cancelled_pops = 0
            prof.max_queue_depth = 0
            prof.dispatch_s = 0.0
            prof.events.clear()

    # -- spans -------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], name: str, layer: str,
             tally: Optional[str] = None, loop: bool = False) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``layer`` (keeps its name and module).

        A ``loop`` span (``Simulator.run``) is the frame events are
        dispatched under; it saves and restores the dispatch mark, so
        loops may nest.
        """
        stack = self._stack
        push, pop = stack.append, stack.pop
        by_layer = self._layers[layer]
        by_name = self._names.setdefault(name, [0, 0.0])
        tallies = self.tallies
        tracer = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            push(0.0)
            if loop:
                outer_mark, tracer._mark = tracer._mark, 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                if loop:
                    tracer._mark = outer_mark
                stack[-2] += duration
                by_layer[0] += duration - pop()
                by_layer[1] += 1
                by_name[0] += 1
                by_name[1] += duration
            if tally is not None and result is not None:
                tallies[tally] = tallies.get(tally, 0) + result
            return result

        return span

    def root(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn()`` as a root span; its uncovered time is unattributed.

        Returns ``(result, seconds)``.
        """
        self._stack.append(0.0)
        start = perf_counter()
        try:
            result = fn()
        finally:
            duration = perf_counter() - start
            covered = self._stack.pop()
        self.unattributed_s += duration - covered
        return result, duration

    def on_dispatch(self, callback: Any, seconds: float) -> None:
        """One event callback ran for ``seconds`` under the loop frame.

        Spans that closed since the previous dispatch ran inside this
        callback, so they are its children; the callback itself becomes
        the loop frame's child in their place.
        """
        stack = self._stack
        inner = stack[-1] - self._mark
        module = getattr(callback, "__module__", None) or type(callback).__module__
        try:
            layer = self._layer_cache[module]
        except KeyError:
            layer = self._layer_cache[module] = layer_of(module)
        if layer is None:
            label = f"{module}.{getattr(callback, '__qualname__', type(callback).__qualname__)}"
            self.unmapped[label] = self.unmapped.get(label, 0.0) + seconds - inner
            self.unattributed_s += seconds - inner
        else:
            stat = self._layers[layer]
            stat[0] += seconds - inner
            stat[1] += 1
        self._mark = stack[-1] = self._mark + seconds

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point and profile every simulator built later."""
        from repro.obs.profiler import KernelProfiler
        from repro.sim.kernel import Simulator

        def patch(owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        for module_name, owner_name, attr, layer, tally in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            name = attr if owner_name is None else f"{owner_name}.{attr}"
            patch(owner, attr, self.wrap(owner.__dict__[attr], name, layer, tally))
        patch(Simulator, "run", self.wrap(Simulator.run, "Simulator.run", "sim", loop=True))

        tracer = self

        class LayerProfiler(KernelProfiler):
            def on_event(self, callback: Any, seconds: float, depth: int) -> None:
                super().on_event(callback, seconds, depth)
                tracer.on_dispatch(callback, seconds)

        # One profiler shared by every simulator of the process, so its
        # counts add up across the points of a sweep.
        self.profiler = LayerProfiler()
        init = Simulator.__init__

        @functools.wraps(init)
        def profiled_init(sim: Any, *args: Any, **kwargs: Any) -> None:
            init(sim, *args, **kwargs)
            sim.set_profiler(tracer.profiler)

        patch(Simulator, "__init__", profiled_init)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------------
    def ledger(self) -> Dict[str, Any]:
        """Plain-data aggregates (what a worker sends back per point).

        ``names`` maps a span name to [calls, inclusive seconds].
        """
        prof = self.profiler
        return {
            "self_s": {layer: stat[0] for layer, stat in self._layers.items()},
            "calls": {layer: stat[1] for layer, stat in self._layers.items()},
            "names": {name: list(stat) for name, stat in self._names.items() if stat[0]},
            "tallies": dict(self.tallies),
            "unmapped": dict(self.unmapped),
            "unattributed_s": self.unattributed_s,
            "kernel": {
                "events": prof.dispatched,
                "pushes": prof.pushes,
                "cancelled_pops": prof.cancelled_pops,
                "max_queue_depth": prof.max_queue_depth,
            },
        }


def merge_ledgers(ledgers: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum ledgers (max for the queue-depth high-water mark)."""
    total: Dict[str, Any] = {
        "self_s": dict.fromkeys(LAYERS, 0.0),
        "calls": dict.fromkeys(LAYERS, 0),
        "names": {},
        "tallies": {},
        "unmapped": {},
        "unattributed_s": 0.0,
        "kernel": {"events": 0, "pushes": 0, "cancelled_pops": 0, "max_queue_depth": 0},
    }
    for ledger in ledgers:
        for key in ("self_s", "calls", "tallies", "unmapped"):
            for name, value in ledger[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, (count, seconds) in ledger["names"].items():
            stat = total["names"].setdefault(name, [0, 0.0])
            stat[0] += count
            stat[1] += seconds
        total["unattributed_s"] += ledger["unattributed_s"]
        for name, value in ledger["kernel"].items():
            if name == "max_queue_depth":
                total["kernel"][name] = max(total["kernel"][name], value)
            else:
                total["kernel"][name] += value
    return total
