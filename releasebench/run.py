"""Release benchmark: simulator speed and modeled disruption per workload.

Run from the repository root::

    python3 releasebench/run.py --workload edge_zdr_mixed --seed 1 \
        --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn and exits non-zero
if any of them does.

A run simulates ``SUBRUNS`` deployments whose seeds derive from
``--seed``, then repeats them in turn until ``--seconds`` of wall time
are spent (at least one repeat; every repeat must reproduce its first
digest).  Simulated metrics pool the sub-seeds; host metrics are
medians over every simulated run.  ``--trace 0`` also builds the deployment
``EXTRA_SETUPS`` more times for the set-up median and prints every
end-to-end metric.  ``--trace 1`` runs the first sub-seed twice
untraced, then once under the profiler, and prints the per-layer
metrics; the full trace (phase spans, per-layer self time and calls,
phase counter deltas) is written to ``releasebench/out/``.

Every run prints the digest of its simulated half.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A broken correctness gate or a digest
mismatch exits 1 without that line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Deployments per run: pooling sub-seeds steadies the seed-to-seed
#: spread of the simulated tail latency and of the host times.
SUBRUNS = 4
#: Builds beyond the timed runs' own, so setup_s is a median of many.
EXTRA_SETUPS = 30

END_TO_END_UNITS = {
    "sim_ops_per_host_s": "1/s",
    "release_window_host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_events_per_op": "count",
    "ops_ok_share": "ratio",
    "release_ops_ok_share": "ratio",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "sim_latency_samples": "count",
}

#: Layers whose self time and calls are reported, then the extra
#: per-layer numbers harvested from the deployment's counters.
TIMED_LAYERS = ("simkernel", "netsim", "proxygen", "protocols",
                "appserver", "clients", "lb", "metrics", "invariants")
HARVESTED = {
    "simkernel.events": "count",
    "netsim.cpu_busy_share.edge": "ratio",
    "netsim.cpu_busy_share.origin": "ratio",
    "netsim.cpu_busy_share.app": "ratio",
    "netsim.net_dropped": "count",
    "proxygen.takeover_completed": "count",
    "proxygen.dcr_rehomed": "count",
    "proxygen.dcr_rehome_ok_ratio": "ratio",
    "proxygen.udp_misrouted": "count",
    "proxygen.tcp_rst_sent": "count",
    "proxygen.upstream_dial_attempt": "count",
    "proxygen.ppr_379_received": "count",
    "proxygen.ppr_bytes_replayed": "bytes",
    "appserver.posts_incomplete": "count",
    "appserver.ppr_rescue_ratio": "ratio",
    "clients.ops_attempted": "count",
    "clients.ops_failed": "count",
    "clients.tls_ok_ratio": "ratio",
    "clients.conn_reset": "count",
    "clients.mqtt_reconnects": "count",
    "clients.session_broken": "count",
    "lb.hc_probe": "count",
    "lb.backend_down": "count",
    "release.window_sim_s": "s",
}
#: Layers reported by self time alone; ``other`` is code outside repro.
SELF_TIME_ONLY = ("release", "cluster", "other")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(HARVESTED)
    units.update({f"{layer}.self_s": "s" for layer in SELF_TIME_ONLY})
    units["trace.overhead_ratio"] = "ratio"
    return units


def main(argv=None) -> int:
    notes = json.loads((HERE / "notes.json").read_text())
    parser = argparse.ArgumentParser(
        prog="releasebench/run.py",
        description="Time one release workload of the simulator")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=notes["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so peak_rss_mb stays per workload.
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for name in workloads.WORKLOADS]
        return max(codes)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            runs = timed_runs(workloads, workload, sub_seeds(args.seed)[:1],
                              seconds=0.0)
            sim = runs[sub_seeds(args.seed)[0]][0].sim
            metrics, out = traced_run(workloads, workload, runs)
            units = per_layer_units()
        else:
            runs = timed_runs(workloads, workload, sub_seeds(args.seed),
                              args.seconds)
            setups = extra_setups(workloads, workload, args.seed)
            sim = pooled(workloads, runs)
            metrics = end_to_end(runs, setups, sim)
            units = END_TO_END_UNITS
    except workloads.GateFailure as exc:
        print(f"CORRECTNESS GATE FAILED ({args.workload}, seed "
              f"{args.seed}): {exc}", file=sys.stderr)
        return 1

    digests = [repeats[0].digest for repeats in runs.values()]
    print(f"workload {args.workload} seed {args.seed}: digest "
          f"{workloads.digest(digests)}")
    for sub, repeats in runs.items():
        print(f"  sub-seed {sub}: {len(repeats)} runs, digest "
              f"{repeats[0].digest}")
    print(f"  simulated user operations after warm-up: attempted "
          f"{sim['attempted']}, failed {sim['failed']}")
    if args.trace:
        print(f"  trace written to {out.relative_to(ROOT)}")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    # The benchmark's operations are the simulated runs: each passed
    # every gate, or the benchmark exited above.  The modeled users'
    # failures are the ops_ok_share metrics and the line above.
    simulated = sum(len(repeats) for repeats in runs.values())
    print(json.dumps({
        "correct": True,
        "attempted": simulated + bool(args.trace),
        "failed": 0,
        "metrics": {name: {"value": 0.0 if value is None else value,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def sub_seeds(seed: int) -> list[int]:
    """The run's inputs: SUBRUNS deployments, seeded from ``seed``."""
    return [seed * SUBRUNS + i for i in range(SUBRUNS)]


def timed_runs(workloads, workload, seeds: list[int], seconds: float):
    """Each seed once, then repeats in turn until ``seconds`` are spent
    (at least one repeat); every repeat must match its first digest."""
    runs: dict[int, list] = {s: [] for s in seeds}
    begin = time.perf_counter()
    turn = 0
    while turn <= len(seeds) or time.perf_counter() - begin < seconds:
        sub = seeds[turn % len(seeds)]
        turn += 1
        gc.collect()
        run = workloads.simulate(workload, sub)
        first = runs[sub][0] if runs[sub] else run
        if run.digest != first.digest:
            raise workloads.GateFailure(
                f"non-deterministic: seed {sub} gave digest {run.digest} "
                f"after {first.digest}")
        runs[sub].append(run)
    return runs


def extra_setups(workloads, workload, seed: int) -> list[float]:
    """Set-up times of EXTRA_SETUPS builds (and their invariant check)."""
    setups = []
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        start = workloads.host_clock()
        workloads.build_and_start(workload, sub_seeds(seed)[0])
        setups.append(workloads.host_clock() - start)
        violations = workloads.invariant_runtime.drain()
        if violations:
            raise workloads.GateFailure(
                f"invariant violation at start-up: {violations[0]}")
    return setups


def pooled(workloads, runs: dict) -> dict:
    """Simulated metrics over the sub-seeds (exact for a seed)."""
    firsts = [repeats[0] for repeats in runs.values()]
    total = {key: sum(run.sim[key] for run in firsts)
             for key in ("ops_completed_run", "events", "attempted", "failed",
                         "release_attempted", "release_failed")}
    samples = sorted(x for run in firsts for x in run.latencies)
    if len(samples) < 1000:
        raise workloads.GateFailure(
            f"only {len(samples)} latency samples; p99 needs 1000 to leave "
            f"ten beyond it")
    summary = workloads.summarize(samples, (0.5, 0.99))
    return dict(total, **{
        "ops_ok_share": 1.0 - total["failed"] / total["attempted"],
        "release_ops_ok_share":
            1.0 - total["release_failed"] / total["release_attempted"],
        "sim_events_per_op": total["events"] / total["ops_completed_run"],
        "sim_latency_p50_ms": summary["p50"] * 1e3,
        "sim_latency_p99_ms": summary["p99"] * 1e3,
        "sim_latency_samples": float(len(samples)),
    })


def end_to_end(runs: dict, setups: list, sim: dict) -> dict:
    every = [run for repeats in runs.values() for run in repeats]
    setups = setups + [run.setup_s for run in every]
    return {
        "sim_ops_per_host_s": statistics.median(
            run.sim["ops_completed_run"] / run.run_host_s for run in every),
        "release_window_host_s": statistics.median(
            run.release_host_s for run in every),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_events_per_op": sim["sim_events_per_op"],
        "ops_ok_share": sim["ops_ok_share"],
        "release_ops_ok_share": sim["release_ops_ok_share"],
        "sim_latency_p50_ms": sim["sim_latency_p50_ms"],
        "sim_latency_p99_ms": sim["sim_latency_p99_ms"],
        "sim_latency_samples": sim["sim_latency_samples"],
    }


def traced_run(workloads, workload, runs: dict):
    """One profiled run of the first sub-seed: per-layer metrics, and the
    trace file."""
    from layers import LayerProfiler

    seed, repeats = next(iter(runs.items()))
    gc.collect()
    profiler = LayerProfiler()
    run = workloads.simulate(workload, seed, hooks=profiler)
    layers = profiler.finish()
    if run.digest != repeats[0].digest:
        raise workloads.GateFailure(
            f"tracing changed the simulation: digest {run.digest} != "
            f"{repeats[0].digest}")
    untraced = statistics.median(sum(r.phase_host_s.values())
                                 for r in repeats)
    traced_host = sum(run.phase_host_s.values())

    metrics: dict = {}
    zero = {"self_s": 0.0, "calls": 0}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(layer, zero)["self_s"]
        metrics[f"{layer}.calls"] = float(layers.get(layer, zero)["calls"])
    metrics.update(run.sim["layers"])
    for layer in SELF_TIME_ONLY:
        metrics[f"{layer}.self_s"] = layers.get(layer, zero)["self_s"]
    metrics["trace.overhead_ratio"] = traced_host / untraced

    out = HERE / "out" / f"trace-{workload.name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "digest": run.digest,
        "run_id": profiler.run_id,
        "untraced_host_s": untraced, "traced_host_s": traced_host,
        "spans": profiler.spans,
        "layers": layers,
        "phase_counter_deltas": run.phase_deltas,
        "metrics": {name: ({"value": value} if value is not None
                           else {"value": None, "applicable": False})
                    for name, value in metrics.items()},
    }, indent=1, sort_keys=True))
    return metrics, out


if __name__ == "__main__":
    sys.exit(main())
