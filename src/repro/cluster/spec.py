"""Deployment specification: sizes, configs, workloads, link profiles."""

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
from ..splice import SpliceConfig

__all__ = ["DeploymentSpec"]


@dataclass
class DeploymentSpec:
    """Everything needed to build one end-to-end deployment (Fig 1).

    Scaled-down defaults: one Edge PoP, one Origin DC, a handful of
    machines per tier.  The paper's figures are normalized, so shapes
    survive this down-scaling (DESIGN.md §6).
    """

    seed: int = 0
    bucket_width: float = 1.0

    # Tier sizes
    edge_proxies: int = 6
    origin_proxies: int = 4
    app_servers: int = 6
    brokers: int = 2
    web_client_hosts: int = 2
    mqtt_client_hosts: int = 2
    quic_client_hosts: int = 1

    # Addressing
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

    # Workloads (None → population not started)
    web_workload: Optional[WebWorkloadConfig] = field(
        default_factory=WebWorkloadConfig)
    mqtt_workload: Optional[MqttWorkloadConfig] = field(
        default_factory=MqttWorkloadConfig)
    quic_workload: Optional[QuicWorkloadConfig] = field(
        default_factory=QuicWorkloadConfig)

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
