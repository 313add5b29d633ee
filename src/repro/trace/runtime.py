"""Opt-in tracing for harness-built deployments.

Mirrors :mod:`repro.invariants.runtime`: the CLI's ``--trace`` flag arms
tracing for the run (``RunContext.trace``, see :mod:`repro.run_context`),
the fuzz runner passes its own config, ``build_deployment`` calls
:func:`install` right after constructing a deployment, and the run's end
calls :func:`drain` to collect every installed collector.

``install`` must run **before** ``deployment.start()``: Proxygen
instances cache ``metrics.tracing`` when they boot (bound-handle
discipline), so a collector attached after startup only covers
instances spawned later.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..release import orchestrator as release_orchestrator
from ..run_context import knob
from .collector import TraceCollector, TraceConfig

__all__ = ["install", "uninstall", "drain"]

_installed: list[tuple[TraceCollector, Callable]] = []


def install(deployment,
            config: Optional[TraceConfig] = None) -> Optional[TraceCollector]:
    """Attach a collector to ``deployment`` (no-op unless ``config`` is
    given or the run's ``--trace`` is on); registers it for :func:`drain`.

    The collector draws its ids from the deployment's seeded ``"trace"``
    stream and observes the release orchestrator so takeover/release
    phases land in the event log next to the spans they disrupt.
    """
    config = knob("trace", config)
    if config is None or not config.enabled:
        return None
    if deployment.metrics.tracing is not None:
        return deployment.metrics.tracing
    collector = TraceCollector(deployment.env,
                               deployment.streams.stream("trace"), config)
    deployment.metrics.tracing = collector

    def _on_release(phase: str, release) -> None:
        if getattr(release, "env", None) is deployment.env:
            collector.event(f"release_{phase}", scope=release.name,
                            targets=len(release.targets))

    release_orchestrator.add_release_observer(_on_release)
    _installed.append((collector, _on_release))
    return collector


def uninstall(collector: TraceCollector) -> None:
    """Detach one collector (the fuzz runner detaches per scenario)."""
    for entry in list(_installed):
        if entry[0] is collector:
            release_orchestrator.remove_release_observer(entry[1])
            _installed.remove(entry)


def drain() -> list[TraceCollector]:
    """Detach and return every installed collector, in install order."""
    collectors = []
    while _installed:
        collector, observer = _installed.pop()
        release_orchestrator.remove_release_observer(observer)
        collectors.append(collector)
    collectors.reverse()
    return collectors
