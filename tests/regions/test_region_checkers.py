"""Negative cases for the two region-scale invariant checkers.

The end-to-end evacuation tests prove the checkers stay quiet on a
correct evacuation; these prove they actually fire when the exit ramp
leaves debris behind.
"""

from repro.invariants.checkers import (
    CrossRegionContinuityChecker,
    EvacuationCompletenessChecker,
)
from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.cluster import Deployment, DeploymentSpec
from repro.proxygen.config import ProxygenConfig


def _running_deployment(**overrides):
    defaults = dict(
        seed=1, regions=2, pops_per_region=1, edge_proxies=2,
        origin_proxies=2, app_servers=2, brokers=1,
        web_client_hosts=1, mqtt_client_hosts=1,
        web_workload=WebWorkloadConfig(clients_per_host=3, think_time=1.0,
                                       request_timeout=8.0),
        mqtt_workload=MqttWorkloadConfig(users_per_host=4,
                                         keepalive_timeout=20.0),
        quic_workload=None,
        edge_config=ProxygenConfig(mode="edge", drain_duration=2.0,
                                   spawn_delay=0.5),
        origin_config=ProxygenConfig(mode="origin", drain_duration=2.0,
                                     spawn_delay=0.5))
    defaults.update(overrides)
    dep = Deployment(DeploymentSpec(**defaults))
    dep.start()
    dep.run(until=10.0)
    return dep


def _attach(checker, deployment):
    class _Suite:
        pass

    suite = _Suite()
    suite.deployment = deployment
    checker.attach(suite)
    return checker


def test_completeness_flags_a_region_that_never_emptied():
    dep = _running_deployment()
    checker = _attach(EvacuationCompletenessChecker(), dep)
    # Claim r1 finished evacuating without draining anything.
    checker.on_event("evacuation_end", region=dep.region("r1"))
    messages = [v.message for v in checker.violations]
    assert any("still actively serving" in m for m in messages)
    assert any("still has" in m for m in messages)  # L4LB backends


def test_completeness_reports_each_problem_once():
    dep = _running_deployment()
    checker = _attach(EvacuationCompletenessChecker(), dep)
    checker.on_event("evacuation_end", region=dep.region("r1"))
    count = len(checker.violations)
    checker.sample()     # re-checks must not duplicate reports
    checker.finalize()
    assert len(checker.violations) == count


def test_continuity_flags_a_dropped_session():
    dep = _running_deployment()
    checker = _attach(CrossRegionContinuityChecker(), dep)
    checker.on_event("broker_sessions_transferred", region="r1",
                     users=[999_999], source_brokers=[])
    checker.finalize()
    (violation,) = checker.violations
    assert "held by 0 brokers" in violation.message


def test_continuity_flags_a_session_left_on_the_source_broker():
    dep = _running_deployment()
    holder = next(b for b in dep.brokers if b.sessions)
    user_id = sorted(holder.sessions)[0]
    checker = _attach(CrossRegionContinuityChecker(), dep)
    checker.on_event("broker_sessions_transferred", region="r1",
                     users=[user_id], source_brokers=[holder.name])
    checker.finalize()
    (violation,) = checker.violations
    assert "back on evacuated broker" in violation.message


def test_continuity_accepts_a_clean_transfer():
    dep = _running_deployment()
    holder = next(b for b in dep.brokers if b.sessions)
    user_id = sorted(holder.sessions)[0]
    checker = _attach(CrossRegionContinuityChecker(), dep)
    checker.on_event("broker_sessions_transferred", region="r1",
                     users=[user_id], source_brokers=["some-other-broker"])
    checker.finalize()
    assert not checker.violations
