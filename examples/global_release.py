#!/usr/bin/env python3
"""A world-wide code push: three Edge PoPs release concurrently.

Builds a one-region topology with three Edge PoPs (each PoP: Katran +
proxy fleet + local users; all PoPs sharing one Origin DC) and rolls a
Zero Downtime Release across every PoP at once — the paper's global
roll-out (§6.1.1), where each batch waits out its drain to preserve
capacity.

Run:  python examples/global_release.py
"""

from repro.clients import WebWorkloadConfig
from repro.proxygen import ProxygenConfig
from repro.regions import RegionalDeployment, RegionalSpec
from repro.release import RollingRelease, RollingReleaseConfig
from repro.simkernel.events import AllOf


def main() -> None:
    drain = 6.0
    dep = RegionalDeployment(RegionalSpec(
        seed=1,
        regions=1,
        pops_per_region=3,
        proxies_per_pop=4,
        origin_proxies=3,
        app_servers=4,
        mqtt_users_per_pop=0,
        edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                   spawn_delay=1.0),
        web_workload=WebWorkloadConfig(clients_per_host=8,
                                       think_time=1.0)))
    dep.start()
    dep.run(until=20)
    pops = dep.regions[0].pops

    print("topology: 3 Edge PoPs × 4 proxies → 1 Origin DC "
          f"({len(dep.app_servers)} app servers)")
    for pop in pops:
        ok = dep.metrics.scoped_counters(
            f"web-clients-{pop.name}").get("get_ok")
        print(f"  {pop.name}: {len(pop.l4lbs[0].healthy_backends())}/4 "
              f"healthy, {ok:.0f} requests served to local users")

    print(f"\nglobal release: 25% batches, each waiting out its "
          f"{drain:.0f}s drain, all PoPs concurrently...")
    releases = [RollingRelease(
        dep.env, pop.servers,
        RollingReleaseConfig(batch_fraction=0.25, post_batch_wait=drain),
        name=f"release-{pop.name}") for pop in pops]
    dep.env.run(until=AllOf(dep.env, [dep.env.process(r.execute())
                                      for r in releases]))
    dep.run(until=dep.env.now + 8)

    print(f"\ncompleted at t={dep.env.now:.0f}s:")
    for pop, release in zip(pops, releases):
        generations = {s.active_instance.generation for s in pop.servers}
        print(f"  {pop.name}: {len(release.batches)} batches, "
              f"{release.duration:.1f}s, fleet now at generation "
              f"{generations}")
    global_duration = (max(r.finished_at for r in releases)
                       - min(r.started_at for r in releases))
    print(f"\nglobal completion: {global_duration:.1f}s "
          f"(= slowest PoP; PoPs roll in parallel, the paper's 25-minute"
          f"\nglobal fleet restart in miniature)")
    errors = sum(
        dep.metrics.scoped_counters(f"web-clients-{pop.name}").get(
            "get_error")
        + dep.metrics.scoped_counters(f"web-clients-{pop.name}").get(
            "get_conn_reset")
        for pop in pops)
    print(f"user-visible web errors during the push: {errors:.0f}")


if __name__ == "__main__":
    main()
