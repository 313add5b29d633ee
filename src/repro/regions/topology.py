"""Build and run a multi-region deployment.

Topology (the paper's Fig. 1, regionalized): ``regions`` Origin DCs sit
on a WAN ring; each has ``pops_per_region`` Edge PoPs and its own app
pool and MQTT brokers.  Every PoP announces the *same* anycast VIP
behind ``l4lbs_per_pop`` ECMP'd Katrans; every Origin serves the same
origin VIP, which is what lets an Edge dial a remote region's Origin
``via_ip`` when its own is gone.

Sites: ``r{i}-origin`` (Origin DC), ``r{i}-pop{p}`` (Edge PoP) and
``clients-r{i}-p{p}`` (that PoP's user population).  Client sites are
deliberately *not* under the ``r{i}-*`` prefix so a region-scoped WAN
partition cuts the region off from its users without silencing the
users themselves.

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
from ..clients.mqtt import MqttClientPopulation
from ..clients.web import WebClientPopulation
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
from ..resilience.health import OutlierTracker
from ..run_context import knob, resolved_katran_config, with_resilience
from ..simkernel.core import Environment
from ..simkernel.events import AllOf
from ..simkernel.rng import RandomStreams
from .anycast import AnycastResolver
from .routing import FallbackOriginRouter
from .spec import RegionalSpec

__all__ = ["Region", "RegionPoP", "RegionalDeployment"]


class RegionPoP:
    """One Edge PoP: proxies behind ECMP'd L4LBs, plus its users."""

    def __init__(self, name: str, site: str, client_site: str):
        self.name = name
        self.site = site
        self.client_site = client_site
        self.hosts: list[Host] = []
        self.servers: list[ProxygenServer] = []
        self.l4lbs: list[Katran] = []
        self.ecmp: Optional[EcmpRouter] = None
        self.resolver: Optional[AnycastResolver] = None
        self.web_clients: Optional[WebClientPopulation] = None
        self.mqtt_clients: Optional[MqttClientPopulation] = None


class Region:
    """One failure domain: an Origin DC plus its Edge PoPs."""

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        self.origin_site = f"{name}-origin"
        self.broker_hosts: list[Host] = []
        self.brokers: list[MqttBroker] = []
        self.app_hosts: list[Host] = []
        self.app_servers: list[AppServer] = []
        self.app_pool = AppServerPool()
        self.origin_hosts: list[Host] = []
        self.origin_servers: list[ProxygenServer] = []
        self.origin_katran: Optional[Katran] = None
        self.origin_router: Optional[FallbackOriginRouter] = None
        self.pops: list[RegionPoP] = []
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


class RegionalDeployment:
    """N regions, one anycast VIP, one global MQTT broker ring."""

    def __init__(self, spec: RegionalSpec,
                 env: Optional[Environment] = None,
                 fault_plan: Optional[FaultPlan] = None):
        spec.validate()
        self.spec = spec
        self.env = env or Environment()
        self._fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        self.invariant_suite = None
        self.streams = RandomStreams(spec.seed)
        self.metrics = MetricsRegistry(bucket_width=spec.bucket_width)
        self.network = Network(self.env, self.streams,
                               default_profile=INTRA_DC,
                               metrics=self.metrics,
                               partition_rng=spec.partition_network_rng)
        self.anycast_https = Endpoint(spec.anycast_vip_ip, spec.https_port)
        self.anycast_mqtt = Endpoint(spec.anycast_vip_ip, spec.mqtt_port)
        self.origin_vip = Endpoint(spec.origin_vip_ip, spec.https_port)
        self.regions: list[Region] = []
        self.broker_ring: ConsistentHashRing[str] = ConsistentHashRing(
            replicas=60, salt=spec.seed)
        self.autoscalers: list = []
        self.load_controller: Optional[LoadController] = None
        self._ip_serial = 0
        self._next_user = 1
        self._build()

    # -- host factory ------------------------------------------------------

    def _host(self, name: str, site: str, cores: int,
              core_speed: float) -> Host:
        self._ip_serial += 1
        serial = self._ip_serial
        return Host(
            self.env, self.network, name,
            ip=f"10.{60 + serial // 62500}"
               f".{(serial // 250) % 250}.{serial % 250}",
            site=site, metrics=self.metrics,
            streams=self.streams.fork(name),
            cores=cores, core_speed=core_speed,
            cpu_bucket_width=self.spec.bucket_width)

    # -- build -------------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        wan = spec.wan
        katran_config = resolved_katran_config(spec)

        # Pass 1: every region's Origin DC (brokers, apps, proxies, LB).
        for r in range(spec.regions):
            region = Region(f"r{r}", r)
            # With local homing each region's origin tier hashes MQTT
            # sessions over its own brokers only (repro.shard: no
            # cross-region session placement = no cross-shard edge);
            # the global ring is still built for callers that hold it.
            region_ring: ConsistentHashRing[str] = (
                ConsistentHashRing(replicas=60, salt=spec.seed)
                if spec.local_broker_homing else self.broker_ring)
            for i in range(spec.brokers):
                host = self._host(f"r{r}-broker-{i}", region.origin_site,
                                  spec.app_cores, spec.app_core_speed)
                region.broker_hosts.append(host)
                region.brokers.append(MqttBroker(host, spec.broker_config))
                self.broker_ring.add(host.ip)
                if region_ring is not self.broker_ring:
                    region_ring.add(host.ip)
            app_config = with_resilience(spec.app_config, AppServerConfig)
            for i in range(spec.app_servers):
                host = self._host(f"r{r}-appserver-{i}", region.origin_site,
                                  spec.app_cores, spec.app_core_speed)
                region.app_hosts.append(host)
                server = AppServer(host, app_config)
                region.app_servers.append(server)
                region.app_pool.add(server)
            origin_context = ProxyTierContext(
                app_pool=region.app_pool,
                broker_ring=region_ring,
                broker_port=spec.broker_port)
            origin_config = with_resilience(spec.resolved_origin_config())
            if origin_config.resilience.enabled:
                region.app_pool.attach_health(OutlierTracker(
                    origin_config.resilience, self.env,
                    self.streams.stream(f"outlier-tracker-r{r}"),
                    counters=self.metrics.scoped_counters(
                        f"resilience-app-r{r}")))
            origin_vips = [VIP("https", self.origin_vip, Protocol.TCP)]
            for i in range(spec.origin_proxies):
                host = self._host(f"r{r}-origin-proxy-{i}",
                                  region.origin_site,
                                  spec.proxy_cores, spec.proxy_core_speed)
                region.origin_hosts.append(host)
                region.origin_servers.append(ProxygenServer(
                    host, with_resilience(spec.resolved_origin_config()),
                    origin_context, vips=list(origin_vips)))
            katran_host = self._host(f"r{r}-origin-katran",
                                     region.origin_site,
                                     spec.app_cores, spec.app_core_speed)
            region.origin_katran = Katran(
                katran_host, region.origin_hosts, config=katran_config,
                name=f"r{r}-origin-katran", hc_vip=self.origin_vip)
            self.regions.append(region)

        # Pass 2: WAN matrix between Origin sites, and the cross-region
        # Edge→Origin fallback routers (home first, then by distance).
        for i, region in enumerate(self.regions):
            for j in range(i + 1, len(self.regions)):
                other = self.regions[j]
                hops = wan.distance(i, j, spec.regions)
                self.network.add_profile(region.origin_site,
                                         other.origin_site,
                                         wan.profile(hops))
        for i, region in enumerate(self.regions):
            router = FallbackOriginRouter(
                self.env, self.streams.stream(f"xregion-{region.name}"),
                self.metrics.scoped_counters(f"xregion-{region.name}"),
                failover=spec.failover)
            router.add_tier(region.name, region.origin_katran.route,
                            [h.ip for h in region.origin_hosts])
            alternates = sorted(
                (other for other in self.regions if other is not region),
                key=lambda o: (wan.distance(i, o.index, spec.regions),
                               o.name))
            for other in alternates:
                router.add_tier(other.name, other.origin_katran.route,
                                [h.ip for h in other.origin_hosts])
            region.origin_router = router

        # Pass 3: Edge PoPs (proxies + ECMP'd L4LBs) and their links.
        edge_vips = [
            VIP("https", self.anycast_https, Protocol.TCP),
            VIP("quic", Endpoint(spec.anycast_vip_ip, spec.https_port),
                Protocol.UDP),
            VIP("mqtt", self.anycast_mqtt, Protocol.TCP),
        ]
        for r, region in enumerate(self.regions):
            edge_context = ProxyTierContext(
                origin_vip=self.origin_vip,
                origin_router=region.origin_router)
            for p in range(spec.pops_per_region):
                pop = RegionPoP(f"r{r}p{p}", site=f"r{r}-pop{p}",
                                client_site=f"clients-r{r}-p{p}")
                self.network.add_profile(pop.site, region.origin_site,
                                         EDGE_ORIGIN)
                for other in self.regions:
                    if other is region:
                        continue
                    hops = wan.distance(r, other.index, spec.regions)
                    self.network.add_profile(
                        pop.site, other.origin_site,
                        LinkProfile(
                            latency=EDGE_ORIGIN.latency + wan.latency(hops),
                            jitter=EDGE_ORIGIN.jitter + wan.jitter,
                            bandwidth=wan.bandwidth))
                for i in range(spec.proxies_per_pop):
                    host = self._host(f"{pop.name}-edge-proxy-{i}",
                                      pop.site, spec.proxy_cores,
                                      spec.proxy_core_speed)
                    pop.hosts.append(host)
                    pop.servers.append(ProxygenServer(
                        host, with_resilience(spec.resolved_edge_config()),
                        edge_context,
                        vips=[VIP(v.name, v.endpoint, v.protocol)
                              for v in edge_vips]))
                for k in range(spec.l4lbs_per_pop):
                    host = self._host(f"{pop.name}-katran-{k}", pop.site,
                                      spec.app_cores, spec.app_core_speed)
                    pop.l4lbs.append(Katran(
                        host, pop.hosts, config=katran_config,
                        name=f"{pop.name}-katran-{k}",
                        hc_vip=self.anycast_https))
                pop.ecmp = EcmpRouter(pop.l4lbs,
                                      salt=spec.seed * 997 + r * 31 + p)
                region.pops.append(pop)

        # Pass 4: client links, anycast resolvers, client populations.
        web_workload = spec.resolved_web_workload()
        mqtt_workload = spec.resolved_mqtt_workload()
        for r, region in enumerate(self.regions):
            for p, pop in enumerate(region.pops):
                for other in self.regions:
                    hops = wan.distance(r, other.index, spec.regions)
                    extra = 0.0 if other is region else wan.latency(hops)
                    for opop in other.pops:
                        profile = (WAN_CLIENT_EDGE if extra == 0.0 else
                                   LinkProfile(
                                       latency=(WAN_CLIENT_EDGE.latency
                                                + extra),
                                       jitter=WAN_CLIENT_EDGE.jitter,
                                       bandwidth=WAN_CLIENT_EDGE.bandwidth))
                        self.network.add_profile(pop.client_site,
                                                 opop.site, profile)
                resolver_host = self._host(f"{pop.name}-resolver",
                                           pop.client_site,
                                           spec.client_cores,
                                           spec.client_core_speed)
                resolver = AnycastResolver(
                    resolver_host, self.anycast_https,
                    config=spec.anycast,
                    resilience=spec.resolved_edge_config().resilience,
                    failover=spec.failover,
                    name=f"anycast-{pop.name}")
                for other in self.regions:
                    entry = other.pops[p % len(other.pops)]
                    resolver.add_target(
                        other.name, entry.ecmp.route,
                        wan.distance(r, other.index, spec.regions))
                pop.resolver = resolver
                if web_workload is not None:
                    host = self._host(f"{pop.name}-web-clients",
                                      pop.client_site, spec.client_cores,
                                      spec.client_core_speed)
                    pop.web_clients = WebClientPopulation(
                        [host], self.anycast_https, resolver.route,
                        self.metrics, web_workload,
                        name=f"web-clients-{pop.name}")
                if mqtt_workload is not None:
                    host = self._host(f"{pop.name}-mqtt-clients",
                                      pop.client_site, spec.client_cores,
                                      spec.client_core_speed)
                    pop.mqtt_clients = MqttClientPopulation(
                        [host], self.anycast_mqtt, resolver.route,
                        self.metrics, mqtt_workload,
                        name=f"mqtt-clients-{pop.name}",
                        first_user_id=self._next_user)
                    self._next_user += mqtt_workload.users_per_host

        load_shape = knob("load_shape", spec.load_shape)
        if load_shape is not None:
            self.load_controller = LoadController(
                self.env, LoadShape(load_shape),
                self.web_populations + self.mqtt_populations,
                metrics=self.metrics)

    # -- aggregate views ---------------------------------------------------

    @property
    def edge_servers(self) -> list[ProxygenServer]:
        return [s for region in self.regions for s in region.edge_servers]

    @property
    def origin_servers(self) -> list[ProxygenServer]:
        return [s for region in self.regions
                for s in region.origin_servers]

    @property
    def app_servers(self) -> list[AppServer]:
        return [s for region in self.regions for s in region.app_servers]

    @property
    def brokers(self) -> list[MqttBroker]:
        return [b for region in self.regions for b in region.brokers]

    @property
    def web_populations(self) -> list[WebClientPopulation]:
        return [pop.web_clients for region in self.regions
                for pop in region.pops if pop.web_clients is not None]

    @property
    def mqtt_populations(self) -> list[MqttClientPopulation]:
        return [pop.mqtt_clients for region in self.regions
                for pop in region.pops if pop.mqtt_clients is not None]

    @property
    def resolvers(self) -> list[AnycastResolver]:
        return [pop.resolver for region in self.regions
                for pop in region.pops if pop.resolver is not None]

    def all_katrans(self) -> list[Katran]:
        return [k for region in self.regions for k in region.katrans()]

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

    # -- anycast control ---------------------------------------------------

    def withdraw_region(self, name: str) -> None:
        """Withdraw a region from every resolver's anycast view."""
        region = self.region(name)
        region.withdrawn = True
        for resolver in self.resolvers:
            resolver.withdraw(name)

    # -- run ---------------------------------------------------------------

    def start(self, only_regions: Optional[list] = None):
        """Start the deployment; ``only_regions`` (region names) starts a
        subset — a shard worker (repro.shard) builds the *full* topology
        (identical IPs, names and rings everywhere) but animates only
        its own regions."""
        plan = knob("faults", self._fault_plan)
        if plan is not None and self.fault_injector is None:
            self.fault_injector = FaultInjector(self, plan).attach()
        return self.env.process(self._startup(only_regions))

    def _startup(self, only_regions: Optional[list] = None):
        if only_regions is None:
            regions = self.regions
        else:
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
                 for region in regions
                 for server in region.origin_servers]
        yield AllOf(self.env, boots)
        boots = [self.env.process(server.start())
                 for region in regions
                 for server in region.edge_servers]
        yield AllOf(self.env, boots)
        for region in regions:
            for katran in region.katrans():
                katran.start(katran.host.spawn(katran.name))
        for region in regions:
            for pop in region.pops:
                if pop.resolver is not None:
                    pop.resolver.start()
                if pop.web_clients is not None:
                    pop.web_clients.start()
                if pop.mqtt_clients is not None:
                    pop.mqtt_clients.start()
        if self.load_controller is not None:
            self.load_controller.start()

    def run(self, until: float) -> None:
        self.env.run(until=until)
