"""Fork-based shard workers and the deterministic merge driver.

Workers use the ``fork`` start method: the child inherits the already-
imported simulator, builds the full topology from the same spec, starts
only its assigned regions (see :mod:`repro.shard`), runs to the horizon
and ships its counter snapshot + invariant verdicts back over a pipe.
A worker that dies without reporting fails the whole run loudly —
silently merging a partial fleet would read as "covered everything".
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

from ..invariants import runtime as invariant_runtime
from ..run_context import current_run
from . import ShardPlan, ShardResult, counters_snapshot, merge_counters

__all__ = ["run_sharded"]


def _run_one(spec, until: float, region_names: Optional[list],
             check_invariants: bool) -> dict:
    """Build, start (a subset of) and run one regional deployment;
    return its report dict.  Runs in-process for the 1-shard arm and
    inside a forked worker for every sharded arm — one code path, so
    the differential compares like with like."""
    from ..regions import RegionalDeployment, RegionalSpec

    if not isinstance(spec, RegionalSpec):
        raise TypeError(f"run_sharded wants a RegionalSpec, "
                        f"got {type(spec).__name__}")
    deployment = RegionalDeployment(spec)
    suite = (invariant_runtime.install(deployment)
             if check_invariants else None)
    deployment.start(only_regions=region_names)
    deployment.env.run(until=until)
    violations = suite.finalize() if suite is not None else []
    return {
        "counters": counters_snapshot(deployment.metrics),
        "violations": sorted((v.checker, v.message) for v in violations),
        "stats": {"events": deployment.env._eid,
                  "now": deployment.env._now},
    }


def _worker_main(pipe, spec, until: float, region_names: list,
                 check_invariants: bool) -> None:
    try:
        # The fork inherited the parent's module state: drop any suites
        # a previous parent run registered (they belong to deployments
        # this worker never sees) before installing our own.
        invariant_runtime.drain()
        reads = current_run().reads
        before = reads.copy()
        report = _run_one(spec, until, region_names, check_invariants)
        # Knob reads happen in this process; ship them home so the
        # parent's run context sees which knobs the workers consumed.
        report["reads"] = reads - before
        pipe.send(("ok", report))
    except BaseException as exc:  # noqa: BLE001 - reported, then re-raised
        pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        raise
    finally:
        pipe.close()


def run_sharded(spec, until: float, shards: int = 1,
                check_invariants: bool = True) -> ShardResult:
    """Run a regional deployment across ``shards`` worker processes.

    ``shards=1`` runs in-process (same code path, no fork).  The spec
    must be shard-independent for N>1 to be meaningful — the
    :class:`ShardResult` is a faithful merge either way, and the
    differential tests pin down the spec shape under which it is
    bit-identical to the 1-shard run (``failover=False``,
    ``local_broker_homing=True``, ``partition_network_rng=True``, no
    load shape).  Fault plans do not shard — every worker would inject
    the same plan once, so a run-wide ``--faults`` plan is rejected
    outright rather than silently multiplied.
    """
    if current_run().faults is not None:
        raise ValueError(
            "fault plans do not shard: run_sharded() needs a run "
            "context without --faults")
    plan = ShardPlan.for_spec(spec, shards)
    if shards == 1:
        report = _run_one(spec, until, None, check_invariants)
        reports = [report]
    else:
        context = multiprocessing.get_context("fork")
        workers = []
        for index in range(shards):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_main,
                args=(sender, spec, until, plan.regions_for(index),
                      check_invariants),
                name=f"shard-{index}")
            process.start()
            sender.close()
            workers.append((index, process, receiver))
        reports = []
        failures = []
        for index, process, receiver in workers:
            try:
                status, payload = receiver.recv()
            except EOFError:
                status, payload = "error", "worker died before reporting"
            process.join()
            if status != "ok":
                failures.append(f"shard {index}: {payload}")
            else:
                current_run().reads.update(payload["reads"])
                reports.append(payload)
        if failures:
            raise RuntimeError("; ".join(failures))
    violations = sorted(v for report in reports
                        for v in report["violations"])
    return ShardResult(
        counters=merge_counters([r["counters"] for r in reports]),
        violations=violations,
        shard_stats=[r["stats"] for r in reports])
