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

from ..cluster import Deployment, DeploymentSpec
from ..invariants import InvariantSuite, InvariantViolation
from ..invariants import runtime as invariant_runtime
from ..run_context import current_run
from . import ShardPlan, ShardResult, counters_snapshot, merge_counters

__all__ = ["run_sharded"]


def _run_one(spec: DeploymentSpec, until: float,
             region_names: Optional[list], check_invariants: bool) -> dict:
    """Build, start (a subset of) and run one deployment; return its
    report dict.  Runs in-process for the 1-shard arm and inside a
    forked worker for every sharded arm — one code path, so the
    differential compares like with like.  The suite's verdict travels
    in the report; :func:`run_sharded` registers it with the caller."""
    deployment = Deployment(spec)
    suite = (InvariantSuite(deployment).attach()
             if check_invariants else None)
    deployment.start(only_regions=region_names)
    deployment.env.run(until=until)
    violations = suite.finalize() if suite is not None else []
    return {
        "counters": counters_snapshot(deployment.metrics),
        "violations": [(v.at, v.checker, v.message) for v in violations],
        "stats": {"events": deployment.env._eid,
                  "now": deployment.env._now},
    }


def _worker_main(pipe, spec, until: float, region_names: list,
                 check_invariants: bool) -> None:
    try:
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


def run_sharded(spec: DeploymentSpec, until: float, shards: int = 1,
                check_invariants: bool = True) -> ShardResult:
    """Run a multi-region deployment across ``shards`` worker processes.

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
    # Each shard's suite counts as a suite of this run, wherever it ran:
    # the caller's drain() sees one verdict per shard, either way.
    if check_invariants:
        for report in reports:
            invariant_runtime.adopt([
                InvariantViolation(checker=checker, message=message, at=at)
                for at, checker, message in report["violations"]])
    violations = sorted((checker, message) for report in reports
                        for _, checker, message in report["violations"])
    return ShardResult(
        counters=merge_counters([r["counters"] for r in reports]),
        violations=violations,
        shard_stats=[r["stats"] for r in reports])
