"""The benchmark's workloads and their output check.

Every workload is a batch, closed-loop job: the benchmark process
starts the next run only after the previous one returned. The inputs
come from the seed alone.

* ``dense_16p`` -- the paper's evaluation model (section 5.1): 16
  mobile hosts in one 2 Mbps cell, point-to-point traffic at a 1 s
  mean send interval, message tracing on, run to 12 committed waves.
  One long loop through the message path: workload -> AppProcess ->
  protocol ``on_*`` -> channels -> DEBUG trace.
* ``scale_4096p`` -- 4096 hosts over 8 cells at a 100 s mean send
  interval (the Fig. 5 rate range), tracing off, 12 committed waves.
  Setup, per-host state and the commit broadcast (each wave fans out
  to every host over wired links) dominate.
* ``sweep_fig56`` -- the ``fig5`` and ``fig6`` preset grids with 4
  replicates (56 points), run by ``CampaignEngine`` on 2 workers into
  an on-disk JSONL ``ResultStore``. Many short trace-on runs, so the
  per-point fixed cost (build, collect, serialisation, pool IPC,
  fsync) dominates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.campaign.spec import RunPoint, preset_spec
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.results import RunResult
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.workload.point_to_point import PointToPointWorkload

#: single-run workloads: system shape, traffic and stop condition
SINGLE_RUN = {
    "dense_16p": {
        "n_processes": 16,
        "n_mss": 1,
        "trace_messages": True,
        "mean_send_interval": 1.0,
        "waves": 12,
    },
    "scale_4096p": {
        "n_processes": 4096,
        "n_mss": 8,
        "trace_messages": False,
        "mean_send_interval": 100.0,
        "waves": 12,
    },
}

SWEEP = "sweep_fig56"
SWEEP_PRESETS = ("fig5", "fig6")
SWEEP_REPLICATES = 4
SWEEP_WORKERS = 2
#: hosts per sweep point (the presets keep the paper's default N)
SWEEP_HOSTS = SystemConfig().n_processes

#: the RunResult fields the output check hashes. Host-side counts such
#: as ``wall_events`` are left out, so an optimisation that removes
#: kernel events does not fail the check.
DIGEST_FIELDS = ("initiations", "counters", "sim_time", "total_blocked_time")


def result_digest(result: Dict[str, Any]) -> str:
    """SHA-256 over the simulated outcome of one ``RunResult.to_dict()``."""
    subset = {name: result[name] for name in DIGEST_FIELDS}
    blob = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_single(name: str, seed: int) -> Tuple[MobileSystem, RunResult, float, float]:
    """One run from ``SystemConfig`` to ``RunResult``.

    Returns ``(system, result, setup_s, e2e_s)``. Setup is the build
    plus the public ``workload.start()``; ``runner.run()`` then finds
    the workload running and leaves it as it is.
    """
    shape = SINGLE_RUN[name]
    started = perf_counter()
    config = SystemConfig(
        n_processes=shape["n_processes"],
        n_mss=shape["n_mss"],
        seed=seed,
        trace_messages=shape["trace_messages"],
    )
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=shape["mean_send_interval"])
    )
    runner = ExperimentRunner(system, workload, RunConfig(max_initiations=shape["waves"]))
    workload.start()
    setup_s = perf_counter() - started
    result = runner.run()
    return system, result, setup_s, perf_counter() - started


def check_recovery_line(system: MobileSystem) -> None:
    """Raise unless the final permanent line is consistent (orphan scan
    and vector-clock test over the message trace)."""
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)


def sweep_points(seed: int) -> List[RunPoint]:
    """The fig5 + fig6 grids with replicates, seeded from ``seed``.

    Replicate-major, so the first replicate of every cell comes first
    (the memory pass runs only that prefix).
    """
    points: List[RunPoint] = []
    for preset in SWEEP_PRESETS:
        spec = dataclasses.replace(
            preset_spec(preset), seed=seed, replicates=SWEEP_REPLICATES
        )
        points.extend(spec.expand())
    return sorted(points, key=lambda point: point.replicate)


def point_record(name: str, seed: int, result: RunResult, wall_s: float) -> Dict[str, Any]:
    """A single run as a campaign ``PointRecord`` dict, for the store."""
    point = {"workload": name, "seed": seed, **SINGLE_RUN[name]}
    return {
        "point_hash": hashlib.sha256(
            json.dumps(point, sort_keys=True).encode()
        ).hexdigest(),
        "status": "ok",
        "point": point,
        "result": result.to_dict(),
        "wall_time": wall_s,
    }

