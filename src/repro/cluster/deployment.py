"""Build and run one end-to-end deployment: Edge PoPs → Origin DCs → apps.

This assembles the paper's Figure 1 for any ``regions ×
pops_per_region`` shape.  Clients reach an Edge PoP over the WAN; the
PoP's Katran consistent-hashes flows over its Edge Proxygen machines;
Edge and Origin Proxygen keep HTTP/2 connections; each Origin forwards
to its region's HHVM app servers and MQTT brokers.

Regions sit on a WAN ring (:class:`repro.regions.WanConfig`).  Every
PoP announces the *same* edge VIP and every Origin serves the same
origin VIP, which is what lets an Edge dial a remote region's Origin
``via_ip`` when its own is gone.  With more than one PoP the builder
adds the multi-region machinery: an anycast resolver in front of each
PoP's users and a cross-region fallback router behind each region's
Edges.  With more than one L4LB per PoP, client flows spread over them
via ECMP.  The one-PoP deployment has neither: its users route straight
into its Katran, as in the paper's single-cluster experiments.

Sites: ``r{i}-origin`` (Origin DC), ``r{i}-pop{p}`` (Edge PoP) and
``clients-r{i}-p{p}`` (that PoP's users), or plain ``origin``, ``edge``
and ``client`` in the one-PoP deployment.  Client sites are deliberately
*not* under the ``r{i}-*`` prefix so a region-scoped WAN partition cuts
the region off from its users without silencing the users themselves.

MQTT session placement uses one **global** broker ring spanning every
region's brokers, so a DCR splice arriving in any region finds the
session context — the property region evacuation leans on when it
re-homes sessions across regions.
"""

from __future__ import annotations

from typing import Optional

from ..appserver.brokers import MqttBroker
from ..appserver.config import AppServerConfig
from ..appserver.hhvm import AppServer
from ..appserver.pool import AppServerPool
from ..cohorts import CohortDriver, CohortSet, compile_cohorts
from ..cohorts.drivers import CLIENT_PROTOCOLS
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..lb.consistent_hash import ConsistentHashRing
from ..lb.ecmp import EcmpRouter
from ..lb.katran import Katran
from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint, Protocol, VIP
from ..netsim.host import Host
from ..netsim.network import (
    EDGE_ORIGIN,
    INTRA_DC,
    WAN_CLIENT_EDGE,
    LinkProfile,
    Network,
)
from ..ops.load import LoadController, LoadShape
from ..proxygen.context import ProxyTierContext
from ..proxygen.server import ProxygenServer
from ..regions.anycast import AnycastResolver
from ..regions.routing import FallbackOriginRouter
from ..resilience.health import OutlierTracker
from ..run_context import knob, resolved_katran_config, with_resilience
from ..simkernel.core import Environment
from ..simkernel.events import AllOf
from ..simkernel.rng import RandomStreams
from ..splice import SpliceGovernor
from .spec import DeploymentSpec

__all__ = ["Deployment", "PoP", "Region"]

#: Client workload kinds, in build and start order.
CLIENT_KINDS = ("web", "mqtt", "quic")


class Region:
    """One failure domain: an Origin DC plus its Edge PoPs."""

    def __init__(self, index: int, single_site: bool):
        self.name = f"r{index}"
        self.index = index
        #: Host-name prefix and scope suffix: empty in the one-PoP
        #: deployment, which keeps its bare historical names.
        self.prefix = "" if single_site else f"{self.name}-"
        self.suffix = "" if single_site else f"-{self.name}"
        self.origin_site = "origin" if single_site \
            else f"{self.name}-origin"
        self.broker_hosts: list[Host] = []
        self.brokers: list[MqttBroker] = []
        self.app_hosts: list[Host] = []
        self.app_servers: list[AppServer] = []
        self.app_pool = AppServerPool()
        self.origin_hosts: list[Host] = []
        self.origin_servers: list[ProxygenServer] = []
        self.origin_katran: Optional[Katran] = None
        #: How this region's Edges reach the origin VIP: through the
        #: cross-region fallback router with more than one PoP, else
        #: straight through the Origin Katran.
        self.edge_context: Optional[ProxyTierContext] = None
        self.pops: list[PoP] = []
        #: Next serial for a grown app server's name.
        self.app_serial = 0
        #: Administratively withdrawn from anycast (evacuation step 1).
        self.withdrawn = False
        #: Fully evacuated (checked by EvacuationCompletenessChecker).
        self.evacuated = False

    @property
    def edge_servers(self) -> list[ProxygenServer]:
        return [s for pop in self.pops for s in pop.servers]

    def katrans(self) -> list[Katran]:
        out = [l4 for pop in self.pops for l4 in pop.l4lbs]
        if self.origin_katran is not None:
            out.append(self.origin_katran)
        return out


class PoP:
    """One Edge PoP: proxies behind their L4LB(s), plus its users."""

    def __init__(self, region: Region, index: int, single_site: bool):
        self.region = region
        self.index = index
        self.name = f"{region.name}p{index}"
        self.prefix = "" if single_site else f"{self.name}-"
        self.suffix = "" if single_site else f"-{self.name}"
        self.site = "edge" if single_site \
            else f"{region.name}-pop{index}"
        self.client_site = "client" if single_site \
            else f"clients-{region.name}-p{index}"
        self.hosts: list[Host] = []
        self.servers: list[ProxygenServer] = []
        self.l4lbs: list[Katran] = []
        self.ecmp: Optional[EcmpRouter] = None
        #: The PoP's L4 entry: ECMP over its L4LBs, or its only L4LB.
        self.route = None
        self.resolver: Optional[AnycastResolver] = None
        self.client_hosts: dict[str, list[Host]] = {}
        self.web_clients = None
        self.mqtt_clients = None
        self.quic_clients = None
        self.cohort_drivers: list[CohortDriver] = []
        #: Next serial for a grown edge proxy's name.
        self.edge_serial = 0


def _only(items: list, view: str):
    if len(items) != 1:
        raise ValueError(f"{view} is a one-PoP view; this deployment has "
                         f"{len(items)} of them")
    return items[0]


class Deployment:
    """One built (but not yet started) end-to-end deployment."""

    def __init__(self, spec: DeploymentSpec,
                 env: Optional[Environment] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.spec = spec
        self.env = env or Environment()
        #: Explicit plan, else the run's ``--faults`` (repro.run_context);
        #: attached when the deployment starts.
        self._fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        #: Set by repro.invariants when a suite attaches to us.
        self.invariant_suite = None
        self.streams = RandomStreams(spec.seed)
        self.metrics = MetricsRegistry(bucket_width=spec.bucket_width)
        #: Splice fast path (repro.splice): explicit spec config, else
        #: the run's ``--splice``; None leaves every layer on per-chunk
        #: fidelity.
        self.splice: Optional[SpliceGovernor] = None
        splice_config = knob("splice", spec.splice)
        if splice_config is not None and splice_config.enabled:
            self.splice = SpliceGovernor(self.env, splice_config)
            # Bound-handle rule: relays and clients reach the governor
            # through the registry they already hold.
            self.metrics.splice = self.splice
        self.network = Network(self.env, self.streams,
                               default_profile=INTRA_DC,
                               metrics=self.metrics,
                               partition_rng=spec.partition_network_rng)
        #: One PoP: no anycast, no cross-region fallback, bare names.
        self.single_site = spec.regions * spec.pops_per_region == 1
        self.edge_https = Endpoint(spec.edge_vip_ip, spec.https_port)
        self.origin_vip = Endpoint(spec.origin_vip_ip, spec.https_port)
        self._ip_serial: dict[str, int] = {}
        self._site_blocks: dict[str, int] = {}
        self.regions: list[Region] = []
        self.broker_ring: ConsistentHashRing[str] = ConsistentHashRing(
            replicas=60, salt=spec.seed)
        #: Cohort client layer (repro.cohorts): set when the spec (or
        #: the run's ``--cohorts`` policy) enables it, in which case the
        #: PoPs' population attributes stay None and lanes are reached
        #: through ``web_populations`` etc.
        self.cohort_set: Optional[CohortSet] = None
        #: Autoscalers attached to this deployment (repro.ops.autoscale)
        #: — the autoscaler-discipline invariant checker audits these.
        self.autoscalers: list = []
        #: Drives client arrival rates when a load shape is configured.
        self.load_controller: Optional[LoadController] = None
        self._build()

    # -- host factory --------------------------------------------------------

    def _host(self, name: str, site: str, cores: int,
              core_speed: float) -> Host:
        serial = self._ip_serial.get(site, 0) + 1
        self._ip_serial[site] = serial
        return Host(
            self.env, self.network, name,
            ip=f"10.{self._site_blocks[site]}"
               f".{serial // 250}.{serial % 250}",
            site=site, metrics=self.metrics,
            streams=self.streams.fork(name),
            cores=cores, core_speed=core_speed,
            cpu_bucket_width=self.spec.bucket_width)

    # -- build ----------------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        katran_config = resolved_katran_config(spec)
        app_config = with_resilience(spec.app_config, AppServerConfig)
        origin_config = with_resilience(spec.resolved_origin_config())
        #: Kept for dynamic scale-out (repro.ops.autoscale): servers
        #: added later must match the fleet they join.
        self._app_config = app_config
        self._edge_config = with_resilience(spec.resolved_edge_config())
        self._edge_vips = [
            VIP("https", self.edge_https, Protocol.TCP),
            VIP("quic", Endpoint(spec.edge_vip_ip, spec.https_port),
                Protocol.UDP),
            VIP("mqtt", Endpoint(spec.edge_vip_ip, spec.mqtt_port),
                Protocol.TCP),
        ]
        # The address plan: one /16 per site, numbered so the one-PoP
        # deployment keeps its historical plan — PoP g on 10.{1+3g},
        # Origin DC r on 10.{2+3r}, PoP g's users on 10.{3+3g}.
        for r in range(spec.regions):
            region = Region(r, self.single_site)
            self.regions.append(region)
            self._site_blocks[region.origin_site] = 2 + 3 * r
            self._build_origin(region, app_config, origin_config,
                               katran_config)
        for region in self.regions:
            self._build_origin_router(region)
            for p in range(spec.pops_per_region):
                pop = PoP(region, p, self.single_site)
                region.pops.append(pop)
                g = region.index * spec.pops_per_region + p
                self._site_blocks[pop.site] = 1 + 3 * g
                self._site_blocks[pop.client_site] = 3 + 3 * g
                self._build_edge(pop, katran_config)
        self._build_clients()

    def _build_origin(self, region: Region, app_config, origin_config,
                      katran_config) -> None:
        """One Origin DC: brokers, app servers, Origin proxies, Katran."""
        spec = self.spec
        site, prefix = region.origin_site, region.prefix
        # With local homing each region's origin tier hashes MQTT
        # sessions over its own brokers only (repro.shard: no
        # cross-region session placement = no cross-shard edge); the
        # global ring is still built for callers that hold it.
        ring = (ConsistentHashRing(replicas=60, salt=spec.seed)
                if spec.local_broker_homing else self.broker_ring)
        for i in range(spec.brokers):
            host = self._host(f"{prefix}broker-{i}", site,
                              spec.app_cores, spec.app_core_speed)
            region.broker_hosts.append(host)
            region.brokers.append(MqttBroker(host, spec.broker_config))
            self.broker_ring.add(host.ip)
            if ring is not self.broker_ring:
                ring.add(host.ip)
        region.app_serial = spec.app_servers
        for i in range(spec.app_servers):
            host = self._host(f"{prefix}appserver-{i}", site,
                              spec.app_cores, spec.app_core_speed)
            region.app_hosts.append(host)
            server = AppServer(host, app_config)
            server.deployment = self
            region.app_servers.append(server)
            region.app_pool.add(server)
        context = ProxyTierContext(app_pool=region.app_pool,
                                   broker_ring=ring,
                                   broker_port=spec.broker_port)
        if origin_config.resilience.enabled:
            # Passive health is a *balancer-wide* view: one tracker on
            # the shared pool, fed by every Origin proxy's outcomes.
            region.app_pool.attach_health(OutlierTracker(
                origin_config.resilience, self.env,
                self.streams.stream(f"outlier-tracker{region.suffix}"),
                counters=self.metrics.scoped_counters(
                    f"resilience-app{region.suffix}")))
        for i in range(spec.origin_proxies):
            host = self._host(f"{prefix}origin-proxy-{i}", site,
                              spec.proxy_cores, spec.proxy_core_speed)
            region.origin_hosts.append(host)
            server = ProxygenServer(
                host, origin_config, context,
                vips=[VIP("https", self.origin_vip, Protocol.TCP)])
            server.deployment = self
            region.origin_servers.append(server)
        host = self._host(f"{prefix}origin-katran", site,
                          spec.app_cores, spec.app_core_speed)
        region.origin_katran = Katran(
            host, region.origin_hosts, config=katran_config,
            name=f"{prefix}origin-katran", hc_vip=self.origin_vip)

    def _build_origin_router(self, region: Region) -> None:
        """The Edge→Origin router of ``region``'s PoPs, plus its WAN
        links: home Origin first, then the others by distance."""
        spec, wan = self.spec, self.spec.wan
        router = region.origin_katran.route
        if not self.single_site:
            for other in self.regions[region.index + 1:]:
                hops = wan.distance(region.index, other.index, spec.regions)
                self.network.add_profile(region.origin_site,
                                         other.origin_site,
                                         wan.profile(hops))
            router = FallbackOriginRouter(
                self.env, self.streams.stream(f"xregion-{region.name}"),
                self.metrics.scoped_counters(f"xregion-{region.name}"),
                failover=spec.failover)
            by_distance = sorted(
                self.regions,
                key=lambda o: (wan.distance(region.index, o.index,
                                            spec.regions), o.name))
            for other in by_distance:
                router.add_tier(other.name, other.origin_katran.route,
                                [h.ip for h in other.origin_hosts])
        region.edge_context = ProxyTierContext(origin_vip=self.origin_vip,
                                               origin_router=router)

    def _build_edge(self, pop: PoP, katran_config) -> None:
        """One Edge PoP: its links, proxies and L4LB(s)."""
        spec, wan = self.spec, self.spec.wan
        region = pop.region
        self.network.add_profile(pop.site, region.origin_site, EDGE_ORIGIN)
        for other in self.regions:
            if other is not region:
                hops = wan.distance(region.index, other.index,
                                    spec.regions)
                self.network.add_profile(pop.site, other.origin_site,
                                         LinkProfile(
                    latency=EDGE_ORIGIN.latency + wan.latency(hops),
                    jitter=EDGE_ORIGIN.jitter + wan.jitter,
                    bandwidth=wan.bandwidth))
        pop.edge_serial = spec.edge_proxies
        for i in range(spec.edge_proxies):
            host = self._host(f"{pop.prefix}edge-proxy-{i}", pop.site,
                              spec.proxy_cores, spec.proxy_core_speed)
            pop.hosts.append(host)
            pop.servers.append(self._edge_server(host, region))
        for k in range(spec.l4lbs_per_pop):
            name = f"{pop.prefix}edge-katran"
            if spec.l4lbs_per_pop > 1:
                name += f"-{k}"
            host = self._host(name, pop.site, spec.app_cores,
                              spec.app_core_speed)
            pop.l4lbs.append(Katran(host, pop.hosts, config=katran_config,
                                    name=name, hc_vip=self.edge_https))
        if len(pop.l4lbs) > 1:
            pop.ecmp = EcmpRouter(pop.l4lbs, salt=spec.seed * 997
                                  + region.index * 31 + pop.index)
            pop.route = pop.ecmp.route
        else:
            pop.route = pop.l4lbs[0].route

    def _edge_server(self, host: Host, region: Region) -> ProxygenServer:
        server = ProxygenServer(
            host, self._edge_config, region.edge_context,
            vips=[VIP(v.name, v.endpoint, v.protocol)
                  for v in self._edge_vips])
        server.deployment = self
        return server

    def _build_clients(self) -> None:
        """Every PoP's users: links, anycast resolver, populations."""
        spec = self.spec
        # The spec's cohort policy wins; the run's ``--cohorts`` applies
        # otherwise.
        cohort_policy = knob("cohorts", spec.cohorts)
        if cohort_policy is not None and not cohort_policy.enabled:
            cohort_policy = None
        workloads = (
            ("web", spec.web_workload, spec.web_client_hosts,
             self.edge_https),
            ("mqtt", spec.mqtt_workload, spec.mqtt_client_hosts,
             Endpoint(spec.edge_vip_ip, spec.mqtt_port)),
            ("quic", spec.quic_workload, spec.quic_client_hosts,
             Endpoint(spec.edge_vip_ip, spec.https_port)),
        )
        # Client IDs continue across PoPs (and cohorts), so MQTT users
        # are unique on the global broker ring and the condensed cohort
        # rung reproduces the individual host-major spawn order exactly.
        next_id = dict.fromkeys(CLIENT_KINDS, 1)
        drivers: list[CohortDriver] = []
        for region in self.regions:
            for pop in region.pops:
                self._add_client_links(pop)
                route = pop.route
                if not self.single_site:
                    route = self._add_resolver(pop)
                for kind, workload, host_count, vip in workloads:
                    if workload is None:
                        continue
                    hosts = [self._host(f"{pop.prefix}{kind}-clients-{i}",
                                        pop.client_site, spec.client_cores,
                                        spec.client_core_speed)
                             for i in range(host_count)]
                    pop.client_hosts[kind] = hosts
                    cls, count_field, first_field = CLIENT_PROTOCOLS[kind]
                    name = f"{kind}-clients{pop.suffix}"
                    if cohort_policy is None:
                        setattr(pop, f"{kind}_clients", cls(
                            hosts, vip, route, self.metrics, workload,
                            name=name, **{first_field: next_id[kind]}))
                        next_id[kind] += (getattr(workload, count_field)
                                          * host_count)
                        continue
                    # Cohort mode: one cohort per client host.
                    cohorts = compile_cohorts(
                        cohort_policy, kind,
                        getattr(workload, count_field), host_count)
                    for i, cohort in enumerate(cohorts):
                        driver = CohortDriver(
                            cohort, cohort_policy, hosts[i], vip, route,
                            self.metrics, workload,
                            scope=f"{name}/{cohort.name}",
                            first_id=next_id[kind],
                            cohort_index=len(drivers))
                        next_id[kind] += driver.spawned
                        drivers.append(driver)
                        pop.cohort_drivers.append(driver)
        if cohort_policy is not None:
            self.cohort_set = CohortSet(self, drivers, cohort_policy)

        # Load shape (repro.ops.load): the spec's own shape wins; the
        # run's ``--load-shape`` applies otherwise.  In cohort mode the
        # controller drives the cohort drivers directly (each fans the
        # scale into its lanes).
        load_shape = knob("load_shape", spec.load_shape)
        if load_shape is not None:
            targets = (list(drivers) if self.cohort_set is not None
                       else [population for kind in CLIENT_KINDS
                             for population in self._populations(kind)])
            self.load_controller = LoadController(
                self.env, LoadShape(load_shape), targets,
                metrics=self.metrics)

    def _add_client_links(self, pop: PoP) -> None:
        """WAN links from ``pop``'s users to every PoP."""
        spec, wan = self.spec, self.spec.wan
        region = pop.region
        for other in self.regions:
            hops = wan.distance(region.index, other.index, spec.regions)
            profile = WAN_CLIENT_EDGE
            if other is not region:
                profile = LinkProfile(
                    latency=WAN_CLIENT_EDGE.latency + wan.latency(hops),
                    jitter=WAN_CLIENT_EDGE.jitter,
                    bandwidth=WAN_CLIENT_EDGE.bandwidth)
            for opop in other.pops:
                self.network.add_profile(pop.client_site, opop.site,
                                         profile)

    def _add_resolver(self, pop: PoP):
        """The anycast resolver that picks among the regions for
        ``pop``'s users; returns its route."""
        spec, wan = self.spec, self.spec.wan
        region = pop.region
        host = self._host(f"{pop.prefix}resolver", pop.client_site,
                          spec.client_cores, spec.client_core_speed)
        resolver = AnycastResolver(
            host, self.edge_https, config=spec.anycast,
            resilience=self._edge_config.resilience,
            failover=spec.failover, name=f"anycast-{pop.name}")
        for other in self.regions:
            entry = other.pops[pop.index % len(other.pops)]
            resolver.add_target(
                other.name, entry.route,
                wan.distance(region.index, other.index, spec.regions))
        pop.resolver = resolver
        return resolver.route

    # -- dynamic membership (repro.ops.autoscale) ----------------------------

    def grow_app_server(self) -> AppServer:
        """Add one app server to the first region's live fleet
        (autoscaler scale-out)."""
        spec = self.spec
        region = self.regions[0]
        name = f"{region.prefix}appserver-{region.app_serial}"
        region.app_serial += 1
        host = self._host(name, region.origin_site, spec.app_cores,
                          spec.app_core_speed)
        server = AppServer(host, self._app_config)
        server.deployment = self
        if self.invariant_suite is not None:
            server.invariant_tap = self.invariant_suite
        region.app_hosts.append(host)
        region.app_servers.append(server)
        region.app_pool.add(server)
        server.start()
        return server

    def retire_app_server(self, server: AppServer):
        """Generator: drain one app server out of the fleet permanently.

        Membership is dropped *first* so no new work is routed to the
        draining machine — the drain only has to see out what is
        already in flight.
        """
        for region in self.regions:
            if server in region.app_servers:
                region.app_pool.remove(server)
                region.app_servers.remove(server)
                region.app_hosts.remove(server.host)
        yield from server.decommission()

    def grow_edge_proxy(self):
        """Generator: boot one new edge proxy in the first PoP and join
        that PoP's L4LBs."""
        spec = self.spec
        pop = self.pops[0]
        name = f"{pop.prefix}edge-proxy-{pop.edge_serial}"
        pop.edge_serial += 1
        host = self._host(name, pop.site, spec.proxy_cores,
                          spec.proxy_core_speed)
        server = self._edge_server(host, pop.region)
        if self.invariant_suite is not None:
            server.invariant_tap = self.invariant_suite
        pop.hosts.append(host)
        pop.servers.append(server)
        yield from server.start()
        # Only a *serving* backend may enter the ring (Katran would
        # health-check it out again, but the window would misroute).
        for l4lb in pop.l4lbs:
            l4lb.add_backend(host)
        return server

    def retire_edge_proxy(self, server: ProxygenServer):
        """Generator: drain one edge proxy out of the pool permanently."""
        for pop in self.pops:
            if server in pop.servers:
                for l4lb in pop.l4lbs:
                    l4lb.remove_backend(server.host.ip)
                pop.servers.remove(server)
                pop.hosts.remove(server.host)
        instance = server.active_instance
        if instance is not None and instance.alive:
            instance.begin_drain(reason="decommission")
            yield instance.exited_event

    # -- start ---------------------------------------------------------------

    def start(self, only_regions: Optional[list] = None):
        """Kick off every component; returns the "infrastructure ready"
        process (clients start once it completes).  ``only_regions``
        (region names) starts a subset — a shard worker (repro.shard)
        builds the *full* topology (identical IPs, names and rings
        everywhere) but animates only its own regions."""
        plan = knob("faults", self._fault_plan)
        if plan is not None and self.fault_injector is None:
            self.fault_injector = FaultInjector(self, plan).attach()
        return self.env.process(self._startup(only_regions))

    def _startup(self, only_regions: Optional[list]):
        regions = self.regions
        if only_regions is not None:
            wanted = set(only_regions)
            regions = [r for r in self.regions if r.name in wanted]
            missing = wanted - {r.name for r in regions}
            if missing:
                raise KeyError(f"no region named {sorted(missing)}")
        for region in regions:
            for broker in region.brokers:
                broker.start()
            for app in region.app_servers:
                app.start()
        boots = [self.env.process(server.start())
                 for region in regions for server in region.origin_servers]
        yield AllOf(self.env, boots)
        boots = [self.env.process(server.start())
                 for region in regions for server in region.edge_servers]
        yield AllOf(self.env, boots)
        pops = [pop for region in regions for pop in region.pops]
        katrans = ([region.origin_katran for region in regions]
                   + [l4lb for pop in pops for l4lb in pop.l4lbs])
        for katran in katrans:
            katran.start(katran.host.spawn(katran.name))
        for pop in pops:
            if pop.resolver is not None:
                pop.resolver.start()
        if self.cohort_set is not None:
            self.cohort_set.start([driver for pop in pops
                                   for driver in pop.cohort_drivers])
        for kind in CLIENT_KINDS:
            for pop in pops:
                population = getattr(pop, f"{kind}_clients")
                if population is not None:
                    population.start()
        if self.load_controller is not None:
            self.load_controller.start()

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``."""
        self.env.run(until=until)

    # -- mechanism windows ---------------------------------------------------

    def notify_release(self, phase: str, release) -> None:
        """A release walking our servers began (``"begin"``) or ended
        (``"end"``).  The fan-out order is fixed — splice, invariants,
        trace, cohorts — so same-tick events keep their order."""
        if self.splice is not None:
            self.splice.on_release(phase)
        if self.invariant_suite is not None:
            self.invariant_suite.on_release(phase, release)
        tracing = self.metrics.tracing
        if tracing is not None:
            tracing.event(f"release_{phase}", scope=release.name,
                          targets=len(release.targets))
        if self.cohort_set is not None:
            self.cohort_set.on_release(phase)

    # -- aggregate views -----------------------------------------------------

    @property
    def pops(self) -> list[PoP]:
        return [pop for region in self.regions for pop in region.pops]

    @property
    def edge_hosts(self) -> list[Host]:
        return [h for pop in self.pops for h in pop.hosts]

    @property
    def edge_servers(self) -> list[ProxygenServer]:
        return [s for pop in self.pops for s in pop.servers]

    @property
    def origin_hosts(self) -> list[Host]:
        return [h for region in self.regions for h in region.origin_hosts]

    @property
    def origin_servers(self) -> list[ProxygenServer]:
        return [s for region in self.regions
                for s in region.origin_servers]

    @property
    def app_hosts(self) -> list[Host]:
        return [h for region in self.regions for h in region.app_hosts]

    @property
    def app_servers(self) -> list[AppServer]:
        return [s for region in self.regions for s in region.app_servers]

    @property
    def broker_hosts(self) -> list[Host]:
        return [h for region in self.regions for h in region.broker_hosts]

    @property
    def brokers(self) -> list[MqttBroker]:
        return [b for region in self.regions for b in region.brokers]

    @property
    def client_hosts(self) -> dict[str, list[Host]]:
        out: dict[str, list[Host]] = {}
        for pop in self.pops:
            for kind, hosts in pop.client_hosts.items():
                out.setdefault(kind, []).extend(hosts)
        return out

    @property
    def resolvers(self) -> list[AnycastResolver]:
        return [pop.resolver for pop in self.pops
                if pop.resolver is not None]

    def _populations(self, kind: str) -> list:
        """Every ``kind`` ("web", "mqtt", "quic") client population.  In
        cohort mode every lane — representative and solo alike — appears
        here, so per-lane conservation keeps being checked."""
        if self.cohort_set is not None:
            return self.cohort_set.populations(kind)
        return [population for pop in self.pops
                if (population := getattr(pop, f"{kind}_clients"))
                is not None]

    @property
    def web_populations(self) -> list:
        """What the request-conservation checker iterates."""
        return self._populations("web")

    def all_katrans(self) -> list[Katran]:
        """Every L4LB in the deployment (fault injection / checkers)."""
        return [k for region in self.regions for k in region.katrans()]

    # -- one-PoP views (a ValueError on a multi-PoP deployment) -------------

    @property
    def edge_katran(self) -> Katran:
        return _only([l4 for pop in self.pops for l4 in pop.l4lbs],
                     "edge_katran")

    @property
    def origin_katran(self) -> Katran:
        return _only([r.origin_katran for r in self.regions],
                     "origin_katran")

    @property
    def app_pool(self) -> AppServerPool:
        return _only([r.app_pool for r in self.regions], "app_pool")

    @property
    def web_clients(self):
        return _only(self.pops, "web_clients").web_clients

    @property
    def mqtt_clients(self):
        return _only(self.pops, "mqtt_clients").mqtt_clients

    @property
    def quic_clients(self):
        return _only(self.pops, "quic_clients").quic_clients

    # -- regions -------------------------------------------------------------

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    def broker_by_ip(self, ip: str) -> Optional[MqttBroker]:
        for broker in self.brokers:
            if broker.host.ip == ip:
                return broker
        return None

    def withdraw_region(self, name: str) -> None:
        """Withdraw a region from every resolver's anycast view."""
        region = self.region(name)
        region.withdrawn = True
        for resolver in self.resolvers:
            resolver.withdraw(name)

    def total_idle_cpu(self, start: float, end: float,
                       hosts: Optional[list[Host]] = None) -> list[tuple[float, float]]:
        """Cluster-wide idle CPU fraction per bucket (the §6.1.2 metric)."""
        hosts = hosts if hosts is not None else self.edge_hosts
        series = [host.cpu.idle(start, end) for host in hosts]
        out = []
        for samples in zip(*series):
            time = samples[0][0]
            out.append((time, sum(v for _, v in samples) / len(samples)))
        return out
