"""Global (multi-PoP) deployments: one region, several Edge PoPs.

The paper's global roll-out shape — N Edge PoPs funneling into one
Origin DC — is ``Deployment`` with ``regions=1, pops_per_region=N``; a
global release is one ``RollingRelease`` per PoP fleet, all running at
once.
"""

import pytest

from repro.clients import WebWorkloadConfig
from repro.cluster import Deployment, DeploymentSpec
from repro.proxygen import ProxygenConfig
from repro.release import RollingRelease, RollingReleaseConfig
from repro.simkernel.events import AllOf


def _global_dep(seed, pops, proxies_per_pop=4, l4lbs_per_pop=1,
                edge_config=None, web_workload=None, web=True):
    if web:
        web_workload = web_workload or WebWorkloadConfig(
            clients_per_host=6, think_time=1.0, request_timeout=8.0)
    dep = Deployment(DeploymentSpec(
        seed=seed, regions=1, pops_per_region=pops,
        edge_proxies=proxies_per_pop, l4lbs_per_pop=l4lbs_per_pop,
        origin_proxies=3, app_servers=4, brokers=1,
        web_client_hosts=1, mqtt_client_hosts=0,
        web_workload=web_workload if web else None, mqtt_workload=None,
        quic_workload=None, edge_config=edge_config))
    dep.start()
    return dep


def _global_release(dep, **config):
    """Release every PoP's fleet concurrently; run until all finish."""
    releases = [RollingRelease(dep.env, pop.servers,
                               RollingReleaseConfig(**config),
                               name=f"release-{pop.name}")
                for pop in dep.pops]
    dep.env.run(until=AllOf(dep.env, [dep.env.process(r.execute())
                                      for r in releases]))
    return releases


@pytest.fixture(scope="module")
def global_dep():
    dep = _global_dep(seed=3, pops=3, proxies_per_pop=3,
                      web_workload=WebWorkloadConfig(clients_per_host=6,
                                                     think_time=1.0))
    dep.run(until=25)
    return dep


def test_each_pop_serves_its_clients(global_dep):
    for pop in global_dep.pops:
        counters = global_dep.metrics.scoped_counters(
            f"web-clients-{pop.name}")
        assert counters.get("get_ok") > 10, pop.name


def test_all_pops_share_one_origin(global_dep):
    served = sum(s.counters.get("requests_served")
                 for s in global_dep.app_servers)
    assert served > 10
    rps = sum(s.counters.get("rps") for s in global_dep.origin_servers)
    assert rps > 10


def test_pop_katrans_are_independent(global_dep):
    pops = global_dep.pops
    assert len(pops) == 3
    for pop in pops:
        assert len(pop.servers) == 3
        assert set(pop.l4lbs[0].healthy_backends()) == \
            {h.ip for h in pop.hosts}


def test_global_release_completes_everywhere():
    dep = _global_dep(
        seed=5, pops=2, proxies_per_pop=2,
        edge_config=ProxygenConfig(mode="edge", drain_duration=3.0,
                                   spawn_delay=0.5),
        web_workload=WebWorkloadConfig(clients_per_host=4,
                                       think_time=1.0))
    dep.run(until=15)
    releases = _global_release(dep, batch_fraction=0.5)
    dep.run(until=dep.env.now + 6)
    for pop in dep.pops:
        for server in pop.servers:
            assert server.releases_completed == 1
            assert server.active_instance.generation == 2
    # Releases across PoPs overlapped in time (global concurrency).
    starts = [r.started_at for r in releases]
    assert max(starts) - min(starts) < 1.0
    durations = [r.duration for r in releases]
    assert all(d > 0 for d in durations)


def test_global_release_with_drain_wait_takes_batches_times_drain():
    drain = 4.0
    dep = _global_dep(
        seed=7, pops=2, proxies_per_pop=4,
        edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                   spawn_delay=0.5),
        web=False)
    dep.run(until=10)
    releases = _global_release(dep, batch_fraction=0.25,
                               post_batch_wait=drain)
    for release in releases:
        # 4 batches × (takeover ~0.5s + wait 4s) ≈ 18s.
        assert 16 <= release.duration <= 22


# -- per-PoP ECMP across several L4LBs ---------------------------------------


def _ecmp_dep(seed=3, l4lbs_per_pop=2):
    dep = _global_dep(seed=seed, pops=2, proxies_per_pop=3,
                      l4lbs_per_pop=l4lbs_per_pop,
                      web_workload=WebWorkloadConfig(clients_per_host=8,
                                                     think_time=0.5))
    dep.run(until=20)
    return dep


def test_ecmp_spreads_flows_over_every_l4lb():
    dep = _ecmp_dep()
    for pop in dep.pops:
        assert len(pop.l4lbs) == 2
        picks = [l4.counters.get("route_hash")
                 + l4.counters.get("route_table_hit")
                 + l4.counters.get("route_table_miss")
                 for l4 in pop.l4lbs]
        assert all(p > 0 for p in picks), (pop.name, picks)


def test_all_l4lbs_of_a_pop_agree_on_backends():
    dep = _ecmp_dep()
    for pop in dep.pops:
        healthy = {tuple(sorted(l4.healthy_backends()))
                   for l4 in pop.l4lbs}
        assert healthy == {tuple(sorted(h.ip for h in pop.hosts))}


def test_all_katrans_lists_origin_and_every_pop_l4lb():
    dep = _ecmp_dep()
    names = {k.name for k in dep.all_katrans()}
    assert names == {"r0-origin-katran",
                     "r0p0-edge-katran-0", "r0p0-edge-katran-1",
                     "r0p1-edge-katran-0", "r0p1-edge-katran-1"}


def test_same_seed_global_runs_are_byte_identical():
    def one_run():
        dep = _ecmp_dep(seed=9)
        return {scope: dep.metrics.scoped_counters(scope).snapshot()
                for scope in dep.metrics.scopes()}

    assert one_run() == one_run()
