"""One run's knobs: the experiments CLI's flags, as one immutable value.

The CLI turns its nine knob flags (``--faults``, ``--resilience``,
``--lb-scheme``, ``--load-shape``, ``--cohorts``, ``--splice``,
``--shards``, ``--canary``, ``--trace``) into one :class:`RunContext`
and runs every figure inside ``with run_context(ctx):``.  Builders deep
inside the figure harnesses never see the CLI; they read a knob through
:func:`knob`, whose one precedence rule is: an explicit spec or config
value wins, and the context only fills what the caller left ``None``.

Every fill is counted in ``ctx.reads``, which is how the CLI reports a
flag that reached no deployment instead of silently doing nothing.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

__all__ = ["KNOB_FLAGS", "RunContext", "current_run", "knob",
           "resolved_katran_config", "run_context", "with_resilience"]

#: Knob field → the CLI flag that sets it.
KNOB_FLAGS = {
    "faults": "--faults",
    "resilience": "--resilience",
    "lb_scheme": "--lb-scheme",
    "load_shape": "--load-shape",
    "cohorts": "--cohorts",
    "splice": "--splice",
    "shards": "--shards",
    "release_gate": "--canary",
    "trace": "--trace",
}


@dataclass(frozen=True)
class RunContext:
    """The knobs of one run; ``None`` everywhere is a plain run."""

    #: :class:`repro.faults.FaultPlan` attached at every deployment start.
    faults: Optional[Any] = None
    #: :class:`repro.resilience.ResilienceConfig` for every proxy/app tier.
    resilience: Optional[Any] = None
    #: L4LB routing policy (:data:`repro.lb.routers.ROUTER_SCHEMES`).
    lb_scheme: Optional[str] = None
    #: :class:`repro.ops.load.LoadShapeConfig` driving client rates.
    load_shape: Optional[Any] = None
    #: :class:`repro.cohorts.CohortPolicy` for the client populations.
    cohorts: Optional[Any] = None
    #: :class:`repro.splice.SpliceConfig` for the bulk-transfer fast path.
    splice: Optional[Any] = None
    #: Worker processes for the shard-aware harnesses.
    shards: Optional[int] = None
    #: ``factory(release) -> gate`` for releases built without a gate.
    release_gate: Optional[Callable] = None
    #: :class:`repro.trace.TraceConfig` for every harness-built deployment.
    trace: Optional[Any] = None
    #: Knob name → builder reads that took their value from this context.
    #: Not part of the value: contexts derived with ``dataclasses.replace``
    #: share it, so a harness's scoped override still reports its reads.
    reads: Counter = field(default_factory=Counter, compare=False,
                           repr=False)

    def __post_init__(self):
        for config in (self.faults, self.resilience, self.load_shape,
                       self.cohorts):
            if config is not None:
                config.validate()
        if self.lb_scheme is not None:
            from .lb.routers import ROUTER_SCHEMES
            if self.lb_scheme not in ROUTER_SCHEMES:
                raise ValueError(f"unknown lb scheme {self.lb_scheme!r}; "
                                 f"available: {ROUTER_SCHEMES}")
        if self.shards is not None and self.shards < 1:
            raise ValueError("--shards must be >= 1")

    def set_knobs(self) -> list[str]:
        """The knob names this context sets, in :data:`KNOB_FLAGS` order."""
        return [name for name in KNOB_FLAGS
                if getattr(self, name) is not None]


_current = RunContext()


def current_run() -> RunContext:
    """The context of the run in progress (the default one outside any
    ``with run_context(...)``)."""
    return _current


@contextmanager
def run_context(ctx: RunContext):
    """Make ``ctx`` current for the block; the previous context comes
    back on exit, exceptions included."""
    global _current
    previous, _current = _current, ctx
    try:
        yield ctx
    finally:
        _current = previous


def knob(name: str, explicit: Any = None) -> Any:
    """``explicit`` when the caller set it, else the current run's value
    of knob ``name`` (counted in ``reads`` when the run sets it)."""
    if explicit is not None:
        return explicit
    value = getattr(_current, name)
    if value is not None:
        _current.reads[name] += 1
    return value


def resolved_katran_config(spec):
    """``spec``'s Katran config with its L4LB scheme resolved: the spec's
    ``lb_scheme``, else the config's own, else the run's ``--lb-scheme``.
    Never mutates the spec's config: it may be shared across arms."""
    config = spec.resolved_katran_config()
    scheme = knob("lb_scheme", spec.lb_scheme or config.lb_scheme)
    if scheme == config.lb_scheme:
        return config
    return replace(config, lb_scheme=scheme)


def with_resilience(config, default: Optional[Callable] = None):
    """``config`` (a proxy or app tier config) with the run's
    ``--resilience`` applied; a ``None`` config becomes ``default()``
    first, and comes back ``None`` when the flag is off.  Unlike every
    other knob this one *overrides*: ``ResilienceConfig`` has no unset
    state (its default is "disabled"), so an explicit tier config cannot
    be told apart from an untouched one."""
    resilience = knob("resilience")
    if resilience is None:
        return config
    if config is None:
        config = default()
    return replace(config, resilience=resilience)
