"""Deployment builder: topology, wiring, addressing, start-up."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.clients import WebWorkloadConfig
from repro.netsim import FourTuple, Endpoint, Protocol


def tiny_spec(**overrides):
    defaults = dict(seed=1, edge_proxies=2, origin_proxies=2,
                    app_servers=2, brokers=2,
                    web_workload=None, mqtt_workload=None,
                    quic_workload=None)
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def test_tier_sizes_match_spec():
    dep = Deployment(tiny_spec())
    assert len(dep.edge_hosts) == 2
    assert len(dep.origin_hosts) == 2
    assert len(dep.app_hosts) == 2
    assert len(dep.broker_hosts) == 2
    assert len(dep.edge_servers) == 2
    assert len(dep.app_servers) == 2


def test_host_ips_unique_and_sited():
    dep = Deployment(tiny_spec())
    all_hosts = dep.network.hosts()
    ips = [h.ip for h in all_hosts]
    assert len(ips) == len(set(ips))
    assert all(h.site == "edge" for h in dep.edge_hosts)
    assert all(h.site == "origin" for h in dep.origin_hosts + dep.app_hosts)


def test_client_hosts_only_for_enabled_workloads():
    dep = Deployment(tiny_spec(web_workload=WebWorkloadConfig(
        clients_per_host=1)))
    assert "web" in dep.client_hosts
    assert "mqtt" not in dep.client_hosts
    assert dep.web_clients is not None
    assert dep.mqtt_clients is None


def test_startup_brings_everything_up():
    dep = Deployment(tiny_spec())
    dep.start()
    dep.run(until=10)
    assert all(s.active_instance is not None for s in dep.edge_servers)
    assert all(s.active_instance is not None for s in dep.origin_servers)
    assert all(s.accepting for s in dep.app_servers)
    assert len(dep.edge_katran.healthy_backends()) == 2
    assert len(dep.origin_katran.healthy_backends()) == 2


def test_edge_vips_shared_across_edge_hosts():
    dep = Deployment(tiny_spec())
    endpoints = {v.endpoint for s in dep.edge_servers for v in s.vips
                 if v.name == "https"}
    assert len(endpoints) == 1  # one shared VIP


def test_broker_ring_covers_all_brokers():
    dep = Deployment(tiny_spec())
    owners = {dep.broker_ring.lookup("user", uid) for uid in range(200)}
    assert owners == {h.ip for h in dep.broker_hosts}


def test_origin_router_routes_flows():
    dep = Deployment(tiny_spec())
    dep.start()
    dep.run(until=5)
    context = dep.edge_servers[0].context
    flow = FourTuple(Protocol.TCP, Endpoint("1.2.3.4", 1000),
                     context.origin_vip)
    backend = context.origin_router(flow)
    assert backend in {h.ip for h in dep.origin_hosts}


def test_total_idle_cpu_reports_buckets():
    dep = Deployment(tiny_spec())
    dep.start()
    dep.run(until=10)
    idle = dep.total_idle_cpu(5, 10)
    assert len(idle) == 5
    assert all(0 <= v <= 1.0001 for _, v in idle)


def test_deterministic_same_seed():
    def build_and_measure(seed):
        dep = Deployment(tiny_spec(
            seed=seed,
            web_workload=WebWorkloadConfig(clients_per_host=5,
                                           think_time=0.5)))
        dep.start()
        dep.run(until=15)
        return dep.metrics.scoped_counters("web-clients").snapshot()

    assert build_and_measure(7) == build_and_measure(7)


def test_different_seed_differs():
    def build_and_measure(seed):
        dep = Deployment(tiny_spec(
            seed=seed,
            web_workload=WebWorkloadConfig(clients_per_host=5,
                                           think_time=0.5)))
        dep.start()
        dep.run(until=15)
        return dep.metrics.scoped_counters("web-clients").snapshot()

    assert build_and_measure(7) != build_and_measure(8)


# -- the address plan --------------------------------------------------------

#: Every host of a default spec as (name, site, ip).  Each host's RNG
#: streams are forked from its name, and rings hash its IP, so this
#: plan is what keeps same-seed single-site runs byte-identical.
DEFAULT_PLAN = [
    ("broker-0", "origin", "10.2.0.1"),
    ("broker-1", "origin", "10.2.0.2"),
    ("appserver-0", "origin", "10.2.0.3"),
    ("appserver-1", "origin", "10.2.0.4"),
    ("appserver-2", "origin", "10.2.0.5"),
    ("appserver-3", "origin", "10.2.0.6"),
    ("appserver-4", "origin", "10.2.0.7"),
    ("appserver-5", "origin", "10.2.0.8"),
    ("origin-proxy-0", "origin", "10.2.0.9"),
    ("origin-proxy-1", "origin", "10.2.0.10"),
    ("origin-proxy-2", "origin", "10.2.0.11"),
    ("origin-proxy-3", "origin", "10.2.0.12"),
    ("origin-katran", "origin", "10.2.0.13"),
    ("edge-proxy-0", "edge", "10.1.0.1"),
    ("edge-proxy-1", "edge", "10.1.0.2"),
    ("edge-proxy-2", "edge", "10.1.0.3"),
    ("edge-proxy-3", "edge", "10.1.0.4"),
    ("edge-proxy-4", "edge", "10.1.0.5"),
    ("edge-proxy-5", "edge", "10.1.0.6"),
    ("edge-katran", "edge", "10.1.0.7"),
    ("web-clients-0", "client", "10.3.0.1"),
    ("web-clients-1", "client", "10.3.0.2"),
    ("mqtt-clients-0", "client", "10.3.0.3"),
    ("mqtt-clients-1", "client", "10.3.0.4"),
    ("quic-clients-0", "client", "10.3.0.5"),
]


def test_single_site_address_plan_is_pinned():
    dep = Deployment(DeploymentSpec())
    assert [(h.name, h.site, h.ip) for h in dep.network.hosts()] == \
        DEFAULT_PLAN
    # One PoP: clients route straight into its Katran, no anycast.
    assert dep.resolvers == [] and dep.pops[0].ecmp is None


def test_multi_site_names_and_ips_are_unique():
    dep = Deployment(DeploymentSpec(regions=3, pops_per_region=2,
                                    l4lbs_per_pop=2))
    hosts = dep.network.hosts()
    assert len({h.name for h in hosts}) == len(hosts)
    assert len({h.ip for h in hosts}) == len(hosts)
    assert len(dep.pops) == 6 and len(dep.resolvers) == 6
    assert all(pop.ecmp is not None for pop in dep.pops)
    assert {h.site for h in dep.edge_hosts} == {
        f"r{r}-pop{p}" for r in range(3) for p in range(2)}


@pytest.mark.parametrize("shape", [{}, {"regions": 2}],
                         ids=["1x1", "multi-region"])
@pytest.mark.parametrize("tier, wrong", [("edge", "origin"),
                                         ("origin", "edge")])
def test_tier_config_with_the_wrong_mode_is_rejected(shape, tier, wrong):
    from repro.proxygen import ProxygenConfig

    with pytest.raises(ValueError, match=f"{tier}_config"):
        DeploymentSpec(**shape,
                       **{f"{tier}_config": ProxygenConfig(mode=wrong)})
