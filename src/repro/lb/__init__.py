"""L4 load balancing: consistent hashing, Katran, ECMP, flow routers."""

from .consistent_hash import ConsistentHashRing
from .ecmp import EcmpRouter
from .katran import BackendState, Katran, KatranConfig
from .lru import LruConnectionTable
from .routers import (ROUTER_SCHEMES, ConcuryRouter, FlowRouter,
                      LruHybridRouter, StatefulRouter, StatelessRouter,
                      make_router)

__all__ = [
    "ConsistentHashRing",
    "EcmpRouter",
    "BackendState",
    "Katran",
    "KatranConfig",
    "LruConnectionTable",
    "ROUTER_SCHEMES",
    "FlowRouter",
    "StatelessRouter",
    "StatefulRouter",
    "LruHybridRouter",
    "ConcuryRouter",
    "make_router",
]
