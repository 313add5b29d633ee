"""Live region evacuation: the exit ramp, DCR re-home, forced closes."""

import pytest

from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.cluster import Deployment, DeploymentSpec
from repro.faults import FaultPlan, FaultSpec
from repro.invariants import InvariantSuite
from repro.proxygen.config import ProxygenConfig
from repro.regions import evacuate_region


def _spec(**overrides):
    defaults = dict(
        seed=1, regions=2, pops_per_region=1, edge_proxies=2,
        origin_proxies=2, app_servers=2, brokers=1,
        web_client_hosts=1, mqtt_client_hosts=1,
        web_workload=WebWorkloadConfig(clients_per_host=4, think_time=1.0,
                                       request_timeout=8.0),
        mqtt_workload=MqttWorkloadConfig(users_per_host=4,
                                         keepalive_timeout=20.0),
        quic_workload=None,
        edge_config=ProxygenConfig(mode="edge", drain_duration=2.0,
                                   spawn_delay=0.5),
        origin_config=ProxygenConfig(mode="origin", drain_duration=2.0,
                                     spawn_delay=0.5))
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def _evacuate(dep, region="r1", start=8.0, until=30.0):
    dep.start()
    dep.run(until=start)
    process = dep.env.process(evacuate_region(dep, region))
    dep.run(until=until)
    assert process.triggered, "evacuation never finished"
    return process.value


def test_evacuation_empties_the_region_under_live_load():
    dep = Deployment(_spec())
    suite = InvariantSuite(dep)
    suite.attach()
    report = _evacuate(dep)
    victim = dep.region("r1")

    assert victim.evacuated
    assert report.finished_at < 30.0
    assert report.sessions_transferred > 0
    assert report.edge_drained == 2
    assert report.origin_drained == 2
    assert report.apps_decommissioned == 2
    # Nothing left behind: no sessions, no serving instances, no
    # L4LB backends.
    assert all(not b.sessions for b in victim.brokers)
    for server in victim.edge_servers + victim.origin_servers:
        instance = server.active_instance
        assert instance is None or not instance.alive
    for katran in victim.katrans():
        assert not katran.backends
    assert suite.finalize() == [], [str(v) for v in suite.violations]


def test_rehomed_sessions_live_on_surviving_ring_owners():
    dep = Deployment(_spec())
    report = _evacuate(dep)
    survivor = dep.region("r0")
    surviving_ips = {b.host.ip for b in survivor.brokers}
    for user_id in report.moved_users:
        holders = [b for b in dep.brokers if user_id in b.sessions]
        assert len(holders) == 1, user_id
        assert holders[0].host.ip in surviving_ips


def test_no_tunnel_still_points_at_a_departed_broker():
    dep = Deployment(_spec())
    _evacuate(dep)
    departed = {h.ip for h in dep.region("r1").broker_hosts}
    for server in dep.origin_servers:
        for instance in (server.active_instance,
                         server.draining_instance):
            if instance is None:
                continue
            for tunnel in instance.mqtt_tunnels.values():
                assert tunnel.closed or tunnel.broker_ip not in departed


def test_survivor_keeps_serving_through_the_evacuation():
    dep = Deployment(_spec())
    dep.start()
    dep.run(until=8.0)
    pop = dep.region("r0").pops[0]
    counters = dep.metrics.scoped_counters(f"web-clients-{pop.name}")
    before = counters.get("get_ok")
    dep.env.process(evacuate_region(dep, "r1"))
    dep.run(until=30.0)
    assert counters.get("get_ok") > before


def test_partitioned_clients_get_their_tunnels_terminated():
    """A client stranded by a WAN partition can't answer the DCR
    solicitation; the evacuation must still converge by terminating its
    tunnel broker-side when the departed brokers finally shut down."""
    plan = FaultPlan(
        "strand-r0",
        [FaultSpec("wan_partition", where="r0-*:*", at=5.0,
                   duration=None)])
    dep = Deployment(_spec(), fault_plan=plan)
    suite = InvariantSuite(dep)
    suite.attach()
    report = _evacuate(dep)
    assert report.tunnels_terminated > 0
    departed = {h.ip for h in dep.region("r1").broker_hosts}
    for server in dep.origin_servers:
        for instance in (server.active_instance,
                         server.draining_instance):
            if instance is None:
                continue
            for tunnel in instance.mqtt_tunnels.values():
                assert tunnel.closed or tunnel.broker_ip not in departed
    assert suite.finalize() == [], [str(v) for v in suite.violations]


def test_evacuation_is_deterministic():
    def one_run():
        dep = Deployment(_spec(seed=5))
        report = _evacuate(dep)
        return (report.finished_at, report.sessions_transferred,
                report.tunnels_solicited, sorted(report.moved_users),
                {scope: dep.metrics.scoped_counters(scope).snapshot()
                 for scope in dep.metrics.scopes()})

    assert one_run() == one_run()
