"""Tests of the benchmark itself.

Run from the repository root with ``python3 e2ebench/selftest.py`` (or
``python3 -m pytest e2ebench/selftest.py``). The first test makes two
full ``scale_4096p`` runs and two full ``dense_16p`` runs, so the file
takes about forty seconds.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Set

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.campaign.engine import CampaignEngine  # noqa: E402
from repro.campaign.store import ResultStore  # noqa: E402
from repro.checkpointing.mutable import MutableCheckpointProtocol  # noqa: E402
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig  # noqa: E402
from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.core.system import MobileSystem  # noqa: E402
from repro.workload.point_to_point import PointToPointWorkload  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def expected_digest(name: str, seed: int) -> str:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"][name][str(seed)]


def plain_run(name: str, seed: int):
    """The same run with no setup clock: only ``runner.run()``."""
    shape = workloads.SINGLE_RUN[name]
    system = MobileSystem(
        SystemConfig(
            n_processes=shape["n_processes"],
            n_mss=shape["n_mss"],
            seed=seed,
            trace_messages=shape["trace_messages"],
        ),
        MutableCheckpointProtocol(),
    )
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=shape["mean_send_interval"])
    )
    return ExperimentRunner(system, workload, RunConfig(max_initiations=shape["waves"])).run()


def test_timed_setup_gives_the_plain_result() -> None:
    for name in workloads.SINGLE_RUN:
        _, timed, _, _ = workloads.run_single(name, SEED)
        plain = plain_run(name, SEED).to_dict()
        assert timed.to_dict() == plain, name
        assert workloads.result_digest(plain) == expected_digest(name, SEED), name


@contextmanager
def fewer_waves() -> Iterator[None]:
    saved = {name: dict(shape) for name, shape in workloads.SINGLE_RUN.items()}
    for shape in workloads.SINGLE_RUN.values():
        shape["waves"] = 2
    try:
        yield
    finally:
        workloads.SINGLE_RUN.update(saved)


def executed_modules(fn) -> Set[str]:
    """Names of the ``repro`` modules whose functions ``fn()`` calls."""
    seen: Set[str] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return {m for m in seen if m == "repro" or m.startswith("repro.")}


def every_workload(tmp: str) -> None:
    for name in workloads.SINGLE_RUN:
        workloads.run_single(name, SEED)
    points = workloads.sweep_points(SEED)[:: len(workloads.sweep_points(SEED)) // 4]
    with ResultStore(os.path.join(tmp, "store.jsonl")) as store:
        report = CampaignEngine(points, store=store, workers=1).run()
    assert report.ok


def test_every_executed_module_maps_to_a_layer() -> None:
    tracer = spans.Tracer()
    try:
        with fewer_waves(), child.scratch_dir() as tmp:
            modules = executed_modules(lambda: every_workload(tmp))
            os.remove(os.path.join(tmp, "store.jsonl"))
            tracer.install()
            modules |= executed_modules(lambda: every_workload(tmp))
    finally:
        tracer.uninstall()
    unmapped = sorted(m for m in modules if spans.layer_of(m) is None)
    assert not unmapped, f"modules outside every layer: {unmapped}"
    assert {spans.layer_of(m) for m in modules} == set(spans.LAYERS)
    assert spans.layer_of("repro.cli") is None  # no catch-all


def test_tampered_result_fails_the_check() -> None:
    with fewer_waves():
        _, result, _, _ = workloads.run_single("dense_16p", SEED)
    honest = result.to_dict()
    digest = workloads.result_digest(honest)
    tampered = json.loads(json.dumps(honest))
    tampered["counters"]["system_messages"] += 1
    forged = workloads.result_digest(tampered)
    assert forged != digest
    # host-side counts are outside the digest
    assert workloads.result_digest(dict(honest, wall_events=0)) == digest

    good = {"ok": True, "digests": [digest]}
    bad = {"ok": True, "digests": [forged]}
    assert run.check_outputs([good, good], digest) == (2, 0)
    assert run.check_outputs([good, bad], digest) == (2, 1)
    # no recorded digest: runs must agree, and one run alone proves nothing
    assert run.check_outputs([good, bad], None) == (2, 2)
    assert run.check_outputs([good], None) == (1, 1)
    assert run.check_outputs([good, good], None) == (2, 0)
    # a raised run fails its points
    assert run.check_outputs([good, {"ok": False, "error": "x"}], digest) == (2, 1)
    # sweep: a prefix run must match the reference's prefix
    points = [digest, forged, forged]
    sweep = run.run_digest(points)
    full = {"ok": True, "digests": points}
    assert run.check_outputs([full, {"ok": True, "digests": points[:2]}], sweep) == (5, 0)
    assert run.check_outputs([full, {"ok": True, "digests": [forged]}], sweep) == (4, 1)
    assert run.check_outputs([{"ok": True, "digests": points[::-1]}], sweep) == (3, 3)


if __name__ == "__main__":
    import traceback

    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok   {name}")
            except Exception:  # noqa: BLE001 - report every test
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    sys.exit(1 if failures else 0)
