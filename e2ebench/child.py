"""One measured run of one workload, in a fresh interpreter.

Usage: ``python3 e2ebench/child.py <timed|traced|mem> <workload> <seed> [seconds]``

``run.py`` starts one of these per run so that ``ru_maxrss`` belongs to
that run alone. The last line of standard output is one JSON object;
``"ok": false`` with an ``"error"`` when the run raised.

* ``timed`` -- no instrumentation: setup and end-to-end wall time, peak
  RSS, and the output digests. The sweep runs whole campaigns back to
  back, each with a fresh pool, until ``seconds`` (default 0: one
  campaign) would be exceeded, and reports each under ``"campaigns"``:
  one interpreter start per campaign would leave a fifth of the time
  unmeasured.
* ``traced`` -- the same run with the span ledger of ``spans.py``
  installed, plus the result appended to an on-disk ``ResultStore``.
* ``mem`` -- the same run under ``tracemalloc``; live bytes at the end
  of the run, grouped by the layer of the allocating ``repro`` frame.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import json
import os
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from repro.campaign import engine as campaign_engine  # noqa: E402
from repro.campaign.engine import CampaignEngine, build_point_runtime  # noqa: E402
from repro.campaign.store import PointRecord, ResultStore  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

#: seconds from the first line of this file to here: importing the
#: package is a cost every fresh interpreter (CLI call, spawned worker)
#: pays, and work moved into import time would otherwise show nowhere
IMPORT_S = perf_counter() - STARTED

#: frames kept per allocation, so an allocation made inside the standard
#: library is still charged to the ``repro`` frame that asked for it
MEM_FRAMES = 3

#: the tracer of a traced sweep; pool workers fork with it installed
TRACER: Optional[spans.Tracer] = None


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def outcome(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Simulated counts the layer metrics need, summed over results."""
    counters: Dict[str, float] = {}
    for result in results:
        for name, value in result["counters"].items():
            counters[name] = counters.get(name, 0) + value
    initiations = [s for result in results for s in result["initiations"]]
    return {
        "counters": counters,
        "mutables_taken": sum(s["mutable_count"] for s in initiations),
        "mutables_promoted": sum(s["promoted_mutables"] for s in initiations),
    }


@contextmanager
def scratch_dir() -> Iterator[str]:
    """A scratch directory inside the checkout, unique to this process."""
    base = os.path.join(ROOT, ".e2ebench_work")
    path = os.path.join(base, str(os.getpid()))
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another process still works in it


# -- single-run workloads ----------------------------------------------------
def single_timed(name: str, seed: int) -> Dict[str, Any]:
    system, result, setup_s, e2e_s = workloads.run_single(name, seed)
    peak = rss_mb()
    if workloads.SINGLE_RUN[name]["trace_messages"]:
        workloads.check_recovery_line(system)
    return {
        "setup_s": setup_s,
        "e2e_s": e2e_s,
        "peak_rss_mb": peak,
        "n_processes": workloads.SINGLE_RUN[name]["n_processes"],
        "point_s": [e2e_s],
        "digests": [workloads.result_digest(result.to_dict())],
    }


def single_traced(name: str, seed: int) -> Dict[str, Any]:
    tracer = spans.Tracer()
    tracer.install()
    (_, result, _, _), e2e_s = tracer.root(
        lambda: workloads.run_single(name, seed)
    )
    # Persist the result as a campaign point would be, after the clock.
    started = perf_counter()
    record = workloads.point_record(name, seed, result, e2e_s)
    with scratch_dir() as path, ResultStore(os.path.join(path, "store.jsonl")) as store:
        store.append(PointRecord.from_dict(record))
    stored_s = perf_counter() - started
    tracer.uninstall()
    return {
        "e2e_s": e2e_s,
        "ledger": tracer.ledger(),
        **outcome([record["result"]]),
        "result_bytes": len(json.dumps(record["result"])),
        "worker_busy_frac": e2e_s / (e2e_s + stored_s),
        "digests": [workloads.result_digest(record["result"])],
    }


def layer_bytes(snapshot: tracemalloc.Snapshot) -> Dict[str, int]:
    """Live bytes per layer, by the innermost ``repro`` frame."""
    prefix = os.path.join(SRC, "")
    module_of: Dict[str, Optional[str]] = {}
    totals = dict.fromkeys(spans.LAYERS, 0)
    for stat in snapshot.statistics("traceback"):
        layer = None
        for frame in reversed(stat.traceback):  # innermost frame first
            filename = frame.filename
            if filename not in module_of:
                module = None
                if filename.startswith(prefix) and filename.endswith(".py"):
                    module = filename[len(prefix):-3].replace(os.sep, ".")
                    module = module[: -len(".__init__")] if module.endswith(".__init__") else module
                module_of[filename] = module
            layer = spans.layer_of(module_of[filename])
            if layer is not None:
                break
        if layer is not None:
            totals[layer] += stat.size
    return totals


def single_mem(name: str, seed: int) -> Dict[str, Any]:
    tracemalloc.start(MEM_FRAMES)
    # Hold the system, so its whole state is live in the snapshot.
    system, result, _, _ = workloads.run_single(name, seed)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    return {
        "mem": layer_bytes(snapshot),
        "digests": [workloads.result_digest(result.to_dict())],
    }


# -- the sweep ------------------------------------------------------------------
def run_campaign(seed: int, executor: Optional[Callable[..., Any]] = None):
    points = workloads.sweep_points(seed)
    with scratch_dir() as path, ResultStore(os.path.join(path, "store.jsonl")) as store:
        engine = CampaignEngine(
            points, store=store, workers=workloads.SWEEP_WORKERS, executor=executor
        )
        started = perf_counter()
        report = engine.run()
        wall_s = perf_counter() - started
    return report, wall_s


def point_digests(report) -> List[Optional[str]]:
    return [
        workloads.result_digest(r.result) if r.ok else None for r in report.records
    ]


def sweep_timed(_: str, seed: int, seconds: float) -> Dict[str, Any]:
    campaigns: List[Dict[str, Any]] = []
    while True:
        report, wall_s = run_campaign(seed)
        campaigns.append({
            "e2e_s": wall_s,
            "point_s": [r.wall_time for r in report.records],
            "digests": point_digests(report),
        })
        del report  # so the next campaign's workers fork from the same heap
        elapsed = perf_counter() - STARTED
        if elapsed + statistics.median(c["e2e_s"] for c in campaigns) > seconds:
            break
    # Then the setup of every point, in-process, as a worker builds it;
    # after the campaigns, so the workers fork from an unused heap.
    setups = []
    for point in workloads.sweep_points(seed):
        started = perf_counter()
        _, workload, _ = build_point_runtime(point)
        workload.start()
        setups.append(perf_counter() - started)
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss_mb(), rss_mb(resource.RUSAGE_CHILDREN)),
        "n_processes": workloads.SWEEP_HOSTS,
        "campaigns": campaigns,
    }


def traced_execute(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Campaign executor: one point as a root span, ledger in ``meta``."""
    assert TRACER is not None
    TRACER.reset()
    record, _ = TRACER.root(lambda: campaign_engine.execute_point(payload))
    record.setdefault("meta", {})["ledger"] = TRACER.ledger()
    return record


def sweep_traced(_: str, seed: int) -> Dict[str, Any]:
    global TRACER
    TRACER = spans.Tracer()
    TRACER.install()
    report, wall_s = run_campaign(seed, executor=traced_execute)
    ok = [r for r in report.records if r.ok]
    # Worker-side ledgers, plus the parent's own store appends.
    ledger = spans.merge_ledgers([r.meta["ledger"] for r in ok] + [TRACER.ledger()])
    TRACER.uninstall()
    busy = sum(r.wall_time for r in report.records)
    return {
        "e2e_s": wall_s,
        "ledger": ledger,
        **outcome([r.result for r in ok]),
        "result_bytes": sum(len(json.dumps(r.result)) for r in ok),
        "worker_busy_frac": busy / (workloads.SWEEP_WORKERS * wall_s),
        "digests": point_digests(report),
    }


def sweep_mem(_: str, seed: int) -> Dict[str, Any]:
    """The first replicate's points in-process; per-layer max over them."""
    points = [p for p in workloads.sweep_points(seed) if p.replicate == 0]
    peak = dict.fromkeys(spans.LAYERS, 0)
    digests = []
    for point in points:
        tracemalloc.start(MEM_FRAMES)
        _, _, runner = build_point_runtime(point)
        result = runner.run(max_events=point.max_events)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        for layer, size in layer_bytes(snapshot).items():
            peak[layer] = max(peak[layer], size)
        digests.append(workloads.result_digest(result.to_dict()))
    return {"mem": peak, "digests": digests}


MODES = {
    "timed": (single_timed, sweep_timed),
    "traced": (single_traced, sweep_traced),
    "mem": (single_mem, sweep_mem),
}


def main(argv: List[str]) -> int:
    mode, name, seed = argv[1], argv[2], int(argv[3])
    seconds = float(argv[4]) if len(argv) > 4 else 0.0
    base_rss_mb = rss_mb()
    single, sweep = MODES[mode]
    try:
        if name != workloads.SWEEP:
            out = single(name, seed)
        elif sweep is sweep_timed:
            out = sweep_timed(name, seed, seconds)
        else:
            out = sweep(name, seed)
        out["ok"] = True
    except Exception as exc:  # noqa: BLE001 - a failed run is a result
        out = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    out["base_rss_mb"] = base_rss_mb
    out["import_s"] = IMPORT_S
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    code = main(sys.argv)
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a 4096-host heap object by
    # object takes seconds and measures nothing.
    os._exit(code)
