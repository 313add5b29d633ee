"""Deployment specification: shape, sizes, configs, workloads, links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..appserver.brokers import BrokerConfig
from ..appserver.config import AppServerConfig
from ..clients.mqtt import MqttWorkloadConfig
from ..clients.quic import QuicWorkloadConfig
from ..clients.web import WebWorkloadConfig
from ..cohorts.spec import CohortPolicy
from ..lb.katran import KatranConfig
from ..ops.load import LoadShapeConfig
from ..proxygen.config import ProxygenConfig
from ..regions.spec import AnycastConfig, WanConfig
from ..splice import SpliceConfig

__all__ = ["DeploymentSpec"]


@dataclass
class DeploymentSpec:
    """Everything needed to build one end-to-end deployment (Fig 1).

    Scaled-down defaults: one region with one Edge PoP, a handful of
    machines per tier.  The paper's figures are normalized, so shapes
    survive this down-scaling (DESIGN.md §6).  Per-region counts
    (Origin proxies, apps, brokers) and per-PoP counts (Edge proxies,
    L4LBs, client hosts) repeat across the ``regions ×
    pops_per_region`` shape.
    """

    seed: int = 0
    bucket_width: float = 1.0

    # Shape: regions on a WAN ring, each an Origin DC with its Edge PoPs
    regions: int = 1
    pops_per_region: int = 1
    #: L4LBs fronting each PoP; with more than one, client flows spread
    #: over them via ECMP.
    l4lbs_per_pop: int = 1

    # Tier sizes (Edge proxies and client hosts per PoP, the rest per
    # region)
    edge_proxies: int = 6
    origin_proxies: int = 4
    app_servers: int = 6
    brokers: int = 2
    web_client_hosts: int = 2
    mqtt_client_hosts: int = 2
    quic_client_hosts: int = 1

    # Addressing: every PoP announces the one edge VIP (anycast), every
    # Origin serves the one origin VIP (so an Edge can dial a remote
    # region's Origin ``via_ip``).
    edge_vip_ip: str = "100.64.0.1"
    origin_vip_ip: str = "100.64.1.1"
    https_port: int = 443
    mqtt_port: int = 8883
    broker_port: int = 1883

    # Machine shapes (cores × units/s per core)
    proxy_cores: int = 4
    proxy_core_speed: float = 20.0
    app_cores: int = 4
    app_core_speed: float = 25.0
    client_cores: int = 64
    client_core_speed: float = 1000.0

    # Multi-PoP behaviour (inert in the one-PoP shape)
    wan: WanConfig = field(default_factory=WanConfig)
    anycast: AnycastConfig = field(default_factory=AnycastConfig)
    #: Anycast failover + cross-region origin fallback; ``False`` pins
    #: every client/PoP to its home region (the ablation arm).
    failover: bool = True
    #: Hash MQTT sessions onto the *home region's* brokers only instead
    #: of the global cross-region ring.  Opt-in (default preserves the
    #: global-ring behaviour DCR re-homing leans on); together with
    #: ``failover=False`` and ``partition_network_rng`` it removes every
    #: cross-region edge, which is what lets the sharded runner
    #: (repro.shard) simulate regions in parallel workers and merge
    #: results bit-identically.
    local_broker_homing: bool = False
    #: Draw network jitter/loss from one RNG stream per *source site*
    #: instead of the single shared "network" stream.  Opt-in: the
    #: shared stream's draw order depends on global event interleaving,
    #: so per-site streams are required for shard-count-independent
    #: results (and only for that — default runs keep their sequences).
    partition_network_rng: bool = False

    # Component configs (None → defaults)
    edge_config: Optional[ProxygenConfig] = None
    origin_config: Optional[ProxygenConfig] = None
    app_config: Optional[AppServerConfig] = None
    broker_config: Optional[BrokerConfig] = None
    katran_config: Optional[KatranConfig] = None
    #: L4LB routing policy (repro.lb.routers.ROUTER_SCHEMES); None keeps
    #: katran_config's own scheme, else the run's ``--lb-scheme``
    #: (historically the LRU hybrid).
    lb_scheme: Optional[str] = None
    #: Client arrival-rate shape over the run (repro.ops.load); None
    #: keeps the historical constant-rate behaviour (or the run's
    #: ``--load-shape``, see repro.run_context).
    load_shape: Optional[LoadShapeConfig] = None
    #: Cohort client layer (repro.cohorts); None keeps one SimProcess
    #: per client (or applies the run's ``--cohorts`` policy).  With a
    #: policy, each client host's workload becomes one cohort scoped
    #: under ``<population>/c<i>``.
    cohorts: Optional[CohortPolicy] = None
    #: Splice fast path (repro.splice); None keeps per-chunk fidelity
    #: everywhere (or applies the run's ``--splice``).  With a config,
    #: established bulk transfers and tunnel relays collapse to bulk
    #: events outside mechanism windows.
    splice: Optional[SpliceConfig] = None

    # Workloads, per client host (None → population not started)
    web_workload: Optional[WebWorkloadConfig] = field(
        default_factory=WebWorkloadConfig)
    mqtt_workload: Optional[MqttWorkloadConfig] = field(
        default_factory=MqttWorkloadConfig)
    quic_workload: Optional[QuicWorkloadConfig] = field(
        default_factory=QuicWorkloadConfig)

    def __post_init__(self):
        if self.regions < 1 or self.pops_per_region < 1:
            raise ValueError("need at least one region and one PoP per "
                             "region")
        if self.regions * self.pops_per_region > 85:
            # One /16 per site, three sites per PoP (Deployment._build).
            raise ValueError("at most 85 PoPs in one deployment")
        if self.l4lbs_per_pop < 1:
            raise ValueError("need at least one L4LB per PoP")
        if self.edge_proxies < 1 or self.origin_proxies < 1:
            raise ValueError("need at least one proxy per tier")
        # A tier config of the other tier's mode builds, then crashes
        # mid-run on the first message it cannot parse.
        for tier, config in (("edge", self.edge_config),
                             ("origin", self.origin_config)):
            if config is not None and config.mode != tier:
                raise ValueError(
                    f"{tier}_config has mode={config.mode!r}; the "
                    f"{tier} tier needs mode={tier!r}")
        self.anycast.validate()

    def resolved_katran_config(self) -> KatranConfig:
        return self.katran_config or KatranConfig()

    def resolved_edge_config(self) -> ProxygenConfig:
        if self.edge_config is not None:
            return self.edge_config
        return ProxygenConfig(mode="edge")

    def resolved_origin_config(self) -> ProxygenConfig:
        if self.origin_config is not None:
            return self.origin_config
        return ProxygenConfig(mode="origin")
