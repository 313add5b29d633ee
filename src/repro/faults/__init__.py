"""Composable fault injection under the deterministic sim clock.

The §5 "operational pitfalls" of the paper — health-check flaps, rogue
379s, orphaned UDP sockets, dead machines — as declarative, replayable
:class:`FaultPlan` inputs that attach to any experiment deployment.
"""

from .injector import FaultInjector, FaultRecord
from .plan import BUILTIN_PLANS, FAULT_KINDS, FaultPlan, FaultSpec, builtin_plan

__all__ = [
    "BUILTIN_PLANS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "builtin_plan",
]
