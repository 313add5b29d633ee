"""Build and run one end-to-end deployment: Edge PoP → Origin DC → apps.

This assembles the paper's Figure 1: clients reach an Edge PoP over the
WAN; the Edge's Katran consistent-hashes flows over Edge Proxygen
machines; Edge and Origin Proxygen keep HTTP/2 connections; the Origin
forwards to HHVM app servers and MQTT brokers.
"""

from __future__ import annotations

from typing import Optional

from ..appserver.brokers import MqttBroker
from ..appserver.config import AppServerConfig
from ..appserver.hhvm import AppServer
from ..appserver.pool import AppServerPool
from ..clients.mqtt import MqttClientPopulation
from ..clients.quic import QuicClientPopulation
from ..clients.web import WebClientPopulation
from ..cohorts import CohortDriver, CohortSet, compile_cohorts
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..lb.consistent_hash import ConsistentHashRing
from ..lb.katran import Katran
from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint, Protocol, VIP
from ..ops.load import LoadController, LoadShape
from ..netsim.host import Host
from ..netsim.network import (
    EDGE_ORIGIN,
    INTRA_DC,
    WAN_CLIENT_EDGE,
    Network,
)
from ..proxygen.context import ProxyTierContext
from ..proxygen.server import ProxygenServer
from ..resilience.health import OutlierTracker
from ..run_context import knob, resolved_katran_config, with_resilience
from ..simkernel.core import Environment
from ..simkernel.events import AllOf
from ..simkernel.rng import RandomStreams
from ..splice import SpliceGovernor
from .spec import DeploymentSpec

__all__ = ["Deployment"]


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
            self.splice.attach(self)
            # Bound-handle rule: relays and clients reach the governor
            # through the registry they already hold.
            self.metrics.splice = self.splice
        self.network = Network(self.env, self.streams,
                               default_profile=INTRA_DC,
                               metrics=self.metrics)
        self.network.add_profile("client", "edge", WAN_CLIENT_EDGE)
        self.network.add_profile("edge", "origin", EDGE_ORIGIN)

        self._ip_serial: dict[str, int] = {}
        self.edge_hosts: list[Host] = []
        self.origin_hosts: list[Host] = []
        self.app_hosts: list[Host] = []
        self.broker_hosts: list[Host] = []
        self.client_hosts: dict[str, list[Host]] = {}

        self.edge_servers: list[ProxygenServer] = []
        self.origin_servers: list[ProxygenServer] = []
        self.app_servers: list[AppServer] = []
        self.app_pool = AppServerPool()
        self.brokers: list[MqttBroker] = []
        self.broker_ring: ConsistentHashRing[str] = ConsistentHashRing(
            replicas=60, salt=spec.seed)

        self.edge_katran: Optional[Katran] = None
        self.origin_katran: Optional[Katran] = None
        self.web_clients: Optional[WebClientPopulation] = None
        self.mqtt_clients: Optional[MqttClientPopulation] = None
        self.quic_clients: Optional[QuicClientPopulation] = None
        #: Cohort client layer (repro.cohorts): set when the spec (or
        #: the run's ``--cohorts`` policy) enables it, in which case
        #: the three population attributes above stay None and lanes
        #: are reached through ``web_populations`` etc.
        self.cohort_set: Optional[CohortSet] = None

        #: Autoscalers attached to this deployment (repro.ops.autoscale)
        #: — the autoscaler-discipline invariant checker audits these.
        self.autoscalers: list = []
        #: Drives client arrival rates when a load shape is configured.
        self.load_controller: Optional[LoadController] = None

        self._build()

    # -- host factory ------------------------------------------------------

    def _host(self, name: str, site: str, cores: int,
              core_speed: float) -> Host:
        block = {"edge": 1, "origin": 2, "client": 3}.get(site, 4)
        serial = self._ip_serial.get(site, 0) + 1
        self._ip_serial[site] = serial
        return Host(
            self.env, self.network, name,
            ip=f"10.{block}.{serial // 250}.{serial % 250}",
            site=site, metrics=self.metrics,
            streams=self.streams.fork(name),
            cores=cores, core_speed=core_speed,
            cpu_bucket_width=self.spec.bucket_width)

    # -- build --------------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        katran_config = resolved_katran_config(spec)

        # Brokers and app servers (Origin DC).
        for i in range(spec.brokers):
            host = self._host(f"broker-{i}", "origin",
                              spec.app_cores, spec.app_core_speed)
            self.broker_hosts.append(host)
            broker = MqttBroker(host, spec.broker_config)
            self.brokers.append(broker)
            self.broker_ring.add(host.ip)
        app_config = with_resilience(spec.app_config, AppServerConfig)
        #: Kept for dynamic scale-out (repro.ops.autoscale): servers
        #: added later must match the fleet they join.
        self._app_config = app_config
        self._app_serial = spec.app_servers
        for i in range(spec.app_servers):
            host = self._host(f"appserver-{i}", "origin",
                              spec.app_cores, spec.app_core_speed)
            self.app_hosts.append(host)
            server = AppServer(host, app_config)
            self.app_servers.append(server)
            self.app_pool.add(server)

        # Origin proxies + their Katran.
        origin_vip = Endpoint(spec.origin_vip_ip, spec.https_port)
        origin_vips = [VIP("https", origin_vip, Protocol.TCP)]
        origin_context = ProxyTierContext(
            app_pool=self.app_pool,
            broker_ring=self.broker_ring,
            broker_port=spec.broker_port)
        origin_config = with_resilience(spec.resolved_origin_config())
        if origin_config.resilience.enabled:
            # Passive health is a *balancer-wide* view: one tracker on
            # the shared pool, fed by every Origin proxy's outcomes.
            self.app_pool.attach_health(OutlierTracker(
                origin_config.resilience, self.env,
                self.streams.stream("outlier-tracker"),
                counters=self.metrics.scoped_counters("resilience-app")))
        for i in range(spec.origin_proxies):
            host = self._host(f"origin-proxy-{i}", "origin",
                              spec.proxy_cores, spec.proxy_core_speed)
            self.origin_hosts.append(host)
            self.origin_servers.append(ProxygenServer(
                host, with_resilience(spec.resolved_origin_config()),
                origin_context, vips=list(origin_vips)))
        origin_katran_host = self._host("origin-katran", "origin",
                                        spec.app_cores, spec.app_core_speed)
        self.origin_katran = Katran(
            origin_katran_host, self.origin_hosts,
            config=katran_config, name="origin-katran",
            hc_vip=origin_vip)

        # Edge proxies + their Katran.
        edge_https = Endpoint(spec.edge_vip_ip, spec.https_port)
        edge_vips = [
            VIP("https", edge_https, Protocol.TCP),
            VIP("quic", Endpoint(spec.edge_vip_ip, spec.https_port),
                Protocol.UDP),
            VIP("mqtt", Endpoint(spec.edge_vip_ip, spec.mqtt_port),
                Protocol.TCP),
        ]
        edge_context = ProxyTierContext(
            origin_vip=origin_vip,
            origin_router=lambda flow: self.origin_katran.route(flow))
        # Kept for dynamic scale-out of the edge tier.
        self._edge_context = edge_context
        self._edge_vips = edge_vips
        self._edge_config = with_resilience(spec.resolved_edge_config())
        self._edge_serial = spec.edge_proxies
        for i in range(spec.edge_proxies):
            host = self._host(f"edge-proxy-{i}", "edge",
                              spec.proxy_cores, spec.proxy_core_speed)
            self.edge_hosts.append(host)
            self.edge_servers.append(ProxygenServer(
                host, with_resilience(spec.resolved_edge_config()),
                edge_context,
                vips=[VIP(v.name, v.endpoint, v.protocol)
                      for v in edge_vips]))
        edge_katran_host = self._host("edge-katran", "edge",
                                      spec.app_cores, spec.app_core_speed)
        self.edge_katran = Katran(
            edge_katran_host, self.edge_hosts,
            config=katran_config, name="edge-katran",
            hc_vip=edge_https)

        # Client populations.  The spec's cohort policy wins; the run's
        # ``--cohorts`` applies otherwise.
        cohort_policy = knob("cohorts", spec.cohorts)
        if cohort_policy is not None and not cohort_policy.enabled:
            cohort_policy = None
        edge_route = lambda flow: self.edge_katran.route(flow)  # noqa: E731
        workloads = (
            ("web", spec.web_workload, spec.web_client_hosts,
             "clients_per_host", edge_https),
            ("mqtt", spec.mqtt_workload, spec.mqtt_client_hosts,
             "users_per_host", Endpoint(spec.edge_vip_ip, spec.mqtt_port)),
            ("quic", spec.quic_workload, spec.quic_client_hosts,
             "flows_per_host", Endpoint(spec.edge_vip_ip, spec.https_port)),
        )
        drivers: list[CohortDriver] = []
        cohort_index = 0
        for kind, workload, host_count, count_field, vip in workloads:
            if workload is None:
                continue
            hosts = [self._host(f"{kind}-clients-{i}", "client",
                                spec.client_cores, spec.client_core_speed)
                     for i in range(host_count)]
            self.client_hosts[kind] = hosts
            if cohort_policy is None:
                population = {
                    "web": WebClientPopulation,
                    "mqtt": MqttClientPopulation,
                    "quic": QuicClientPopulation,
                }[kind](hosts, vip, edge_route, self.metrics, workload)
                setattr(self, f"{kind}_clients", population)
                continue
            # Cohort mode: one cohort per client host, IDs continuing
            # across cohorts so the condensed rung reproduces the
            # individual host-major spawn order exactly.
            first_id = 1
            cohorts = compile_cohorts(cohort_policy, kind,
                                      getattr(workload, count_field),
                                      host_count)
            for i, cohort in enumerate(cohorts):
                driver = CohortDriver(
                    cohort, cohort_policy, hosts[i], vip, edge_route,
                    self.metrics, workload,
                    scope=f"{kind}-clients/{cohort.name}",
                    first_id=first_id, cohort_index=cohort_index)
                first_id += driver.spawned
                cohort_index += 1
                drivers.append(driver)
        if cohort_policy is not None:
            self.cohort_set = CohortSet(self, drivers, cohort_policy)

        # Load shape (repro.ops.load): the spec's own shape wins; the
        # run's ``--load-shape`` applies otherwise.  In cohort mode the
        # controller drives the cohort drivers directly (each fans the
        # scale into its lanes).
        load_shape = knob("load_shape", spec.load_shape)
        if load_shape is not None:
            targets = (list(self.cohort_set.drivers)
                       if self.cohort_set is not None
                       else [self.web_clients, self.mqtt_clients,
                             self.quic_clients])
            self.load_controller = LoadController(
                self.env, LoadShape(load_shape), targets,
                metrics=self.metrics)

    # -- dynamic membership (repro.ops.autoscale) ----------------------------

    def grow_app_server(self) -> AppServer:
        """Add one app server to the live fleet (autoscaler scale-out)."""
        spec = self.spec
        name = f"appserver-{self._app_serial}"
        self._app_serial += 1
        host = self._host(name, "origin", spec.app_cores,
                          spec.app_core_speed)
        server = AppServer(host, self._app_config)
        if self.invariant_suite is not None:
            server.invariant_tap = self.invariant_suite
        self.app_hosts.append(host)
        self.app_servers.append(server)
        self.app_pool.add(server)
        server.start()
        return server

    def retire_app_server(self, server: AppServer):
        """Generator: drain one app server out of the fleet permanently.

        Membership is dropped *first* so no new work is routed to the
        draining machine — the drain only has to see out what is
        already in flight.
        """
        self.app_pool.remove(server)
        if server in self.app_servers:
            self.app_servers.remove(server)
        if server.host in self.app_hosts:
            self.app_hosts.remove(server.host)
        yield from server.decommission()

    def grow_edge_proxy(self):
        """Generator: boot one new edge proxy and join the Katran pool."""
        spec = self.spec
        name = f"edge-proxy-{self._edge_serial}"
        self._edge_serial += 1
        host = self._host(name, "edge", spec.proxy_cores,
                          spec.proxy_core_speed)
        server = ProxygenServer(
            host, self._edge_config, self._edge_context,
            vips=[VIP(v.name, v.endpoint, v.protocol)
                  for v in self._edge_vips])
        if self.invariant_suite is not None:
            server.invariant_tap = self.invariant_suite
        self.edge_hosts.append(host)
        self.edge_servers.append(server)
        yield from server.start()
        # Only a *serving* backend may enter the ring (Katran would
        # health-check it out again, but the window would misroute).
        self.edge_katran.add_backend(host)
        return server

    def retire_edge_proxy(self, server: ProxygenServer):
        """Generator: drain one edge proxy out of the pool permanently."""
        self.edge_katran.remove_backend(server.host.ip)
        if server in self.edge_servers:
            self.edge_servers.remove(server)
        if server.host in self.edge_hosts:
            self.edge_hosts.remove(server.host)
        instance = server.active_instance
        if instance is not None and instance.alive:
            instance.begin_drain(reason="decommission")
            yield instance.exited_event

    # -- start ---------------------------------------------------------------

    def start(self):
        """Kick off every component; returns the "infrastructure ready"
        process (clients start once it completes)."""
        plan = knob("faults", self._fault_plan)
        if plan is not None and self.fault_injector is None:
            self.fault_injector = FaultInjector(self, plan).attach()
        return self.env.process(self._startup())

    def _startup(self):
        for broker in self.brokers:
            broker.start()
        for app in self.app_servers:
            app.start()
        boots = [self.env.process(server.start())
                 for server in self.origin_servers]
        yield AllOf(self.env, boots)
        boots = [self.env.process(server.start())
                 for server in self.edge_servers]
        yield AllOf(self.env, boots)
        self.origin_katran.start(
            self.origin_katran.host.spawn("origin-katran"))
        self.edge_katran.start(self.edge_katran.host.spawn("edge-katran"))
        if self.cohort_set is not None:
            self.cohort_set.start()
        if self.web_clients is not None:
            self.web_clients.start()
        if self.mqtt_clients is not None:
            self.mqtt_clients.start()
        if self.quic_clients is not None:
            self.quic_clients.start()
        if self.load_controller is not None:
            self.load_controller.start()

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``."""
        self.env.run(until=until)

    # -- convenience views -------------------------------------------------------

    @property
    def web_populations(self) -> list:
        """Every web client population (the invariant checkers iterate
        this so single- and multi-region deployments look alike).  In
        cohort mode, every web lane — representative and solo alike —
        appears here, so per-lane conservation keeps being checked."""
        if self.cohort_set is not None:
            return self.cohort_set.populations("web")
        return [] if self.web_clients is None else [self.web_clients]

    @property
    def mqtt_populations(self) -> list:
        if self.cohort_set is not None:
            return self.cohort_set.populations("mqtt")
        return [] if self.mqtt_clients is None else [self.mqtt_clients]

    @property
    def quic_populations(self) -> list:
        if self.cohort_set is not None:
            return self.cohort_set.populations("quic")
        return [] if self.quic_clients is None else [self.quic_clients]

    def all_katrans(self) -> list:
        """Every L4LB in the deployment (fault injection / checkers)."""
        return [k for k in (self.edge_katran, self.origin_katran)
                if k is not None]

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
