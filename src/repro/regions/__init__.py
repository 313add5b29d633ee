"""Multi-region mechanisms: anycast failover, fallback routing, evacuation.

The paper's Fig. 1 fleet is hundreds of Edge PoPs funneling into tens of
Origin datacenters.  :class:`repro.cluster.Deployment` builds that shape
for any ``regions × pops_per_region`` (the one-PoP cluster is its
smallest case); this package holds the mechanisms the builder wires in
once a topology has more than one PoP:

* an anycast map: every PoP announces the same edge VIP; each client's
  resolver tracks per-region health and re-resolves to the
  next-nearest healthy region when its home stops answering;
* a cross-region Edge→Origin fallback tier, so an Edge PoP orphaned by
  its Origin degrades gracefully instead of hard-failing;
* live region evacuation: MQTT sessions re-home across regions via DCR,
  web traffic drains through the normal drain machinery.

:class:`WanConfig` (the inter-region latency matrix) and
:class:`AnycastConfig` (resolver probing) are the spec's knobs for them.
"""

from .anycast import AnycastResolver, RegionTarget
from .evacuate import EvacuationReport, evacuate_region
from .routing import FallbackOriginRouter
from .spec import AnycastConfig, WanConfig

__all__ = [
    "AnycastConfig",
    "AnycastResolver",
    "EvacuationReport",
    "FallbackOriginRouter",
    "RegionTarget",
    "WanConfig",
    "evacuate_region",
]
