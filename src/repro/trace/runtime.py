"""Opt-in tracing for harness-built deployments.

Mirrors :mod:`repro.invariants.runtime`: the CLI's ``--trace`` flag arms
tracing for the run (``RunContext.trace``, see :mod:`repro.run_context`),
``build_deployment`` calls :func:`install` right after constructing a
deployment, and the run's end calls :func:`drain` to collect every
installed collector.  The fuzz runner calls :func:`attach` instead:
its per-scenario collector is read back by the runner, not drained.

``install`` and ``attach`` must run **before** ``deployment.start()``:
Proxygen instances cache ``metrics.tracing`` when they boot (bound-handle
discipline), so a collector attached after startup only covers
instances spawned later.
"""

from __future__ import annotations

from typing import Optional

from ..run_context import knob
from .collector import TraceCollector, TraceConfig

__all__ = ["attach", "install", "drain"]

_installed: list[TraceCollector] = []


def attach(deployment, config: TraceConfig) -> TraceCollector:
    """Hang a collector on ``deployment`` (or return the one already
    there), without registering it for :func:`drain`.

    The collector draws its ids from the deployment's seeded ``"trace"``
    stream; the deployment logs its release phases into it
    (``Deployment.notify_release``), so takeover/release phases land in
    the event log next to the spans they disrupt.
    """
    if deployment.metrics.tracing is None:
        deployment.metrics.tracing = TraceCollector(
            deployment.env, deployment.streams.stream("trace"), config)
    return deployment.metrics.tracing


def install(deployment,
            config: Optional[TraceConfig] = None) -> Optional[TraceCollector]:
    """Attach a collector to ``deployment`` (no-op unless ``config`` is
    given or the run's ``--trace`` is on); registers it for :func:`drain`.
    """
    config = knob("trace", config)
    if config is None or not config.enabled:
        return None
    if deployment.metrics.tracing is not None:
        return deployment.metrics.tracing
    collector = attach(deployment, config)
    _installed.append(collector)
    return collector


def drain() -> list[TraceCollector]:
    """Return every installed collector, in install order, and clear the
    registry."""
    collectors = list(_installed)
    _installed.clear()
    return collectors
