"""Determinism guarantees: same seed ⇒ byte-identical trace exports.

These are the load-bearing properties of the tracing subsystem: a traced
run must replay exactly (trace ids from the seeded stream, span times
from the sim clock, no process-global message ids in the export), and a
fuzz repro file must round-trip the trace of the violating run.
"""

import json

from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.experiments.common import build_deployment
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import Scenario, generate_scenario
from repro.proxygen.config import ProxygenConfig
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.trace import TraceConfig
from repro.run_context import RunContext, run_context
from repro.trace import runtime as trace_runtime


def _traced_run(seed: int) -> str:
    """One full traced run — release + fault plan — returning the JSON
    export."""
    plan = FaultPlan(
        name="det-test",
        specs=[FaultSpec(kind="slow_host", where="appserver-0", at=4.0,
                         duration=3.0, params={"speed_factor": 0.5})],
        description="deterministic slowdown")
    try:
        with run_context(RunContext(trace=TraceConfig(sample_rate=1.0,
                                                      max_traces=500))):
            deployment = build_deployment(
                seed=seed, edge_proxies=2, origin_proxies=1, app_servers=2,
                edge_config=ProxygenConfig(mode="edge", drain_duration=3.0,
                                           spawn_delay=0.5),
                web=WebWorkloadConfig(clients_per_host=6, think_time=0.6,
                                      post_fraction=0.2),
                mqtt=MqttWorkloadConfig(users_per_host=4,
                                        publish_interval=2.0),
                fault_plan=plan)
        deployment.run(until=6.0)
        release = RollingRelease(deployment.env, deployment.edge_servers,
                                 RollingReleaseConfig(batch_fraction=0.5))
        deployment.env.process(release.execute())
        deployment.run(until=16.0)
        (collector,) = trace_runtime.drain()
        return collector.to_json()
    finally:
        trace_runtime.drain()


def test_same_seed_runs_export_byte_identical_json():
    # Two runs in the same process: the process-global message counters
    # (HttpRequest.id etc.) have advanced between them, so equality here
    # proves those ids never leak into the export.
    first = _traced_run(5)
    second = _traced_run(5)
    assert first == second

    doc = json.loads(first)
    assert doc["traces"], "a traced run must retain traces"
    event_names = {event["name"] for event in doc["events"]}
    # The release observer and the takeover path both feed the event log.
    assert "release_begin" in event_names
    assert "takeover_begin" in event_names


def test_different_seeds_diverge():
    assert _traced_run(5) != _traced_run(6)


def test_fuzz_repro_round_trips_embedded_trace():
    scenario = generate_scenario(0, planted="skip_drain_gate")
    result = run_scenario(scenario)
    assert result.violations, "planted fault must trip the invariants"
    assert result.trace is not None
    assert result.trace["traces"], "violating requests must be tail-kept"

    # What the fuzz CLI writes: scenario fields plus the trace export.
    doc = scenario.to_dict()
    doc["trace"] = result.trace
    restored = Scenario.from_json(json.dumps(doc, sort_keys=True))
    assert restored == scenario  # the trace rides along, not an input

    replay = run_scenario(restored)
    assert replay.violations == result.violations
    assert replay.trace == result.trace
