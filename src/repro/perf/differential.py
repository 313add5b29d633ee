"""Shared plumbing for differential (bit-identical) comparisons.

Two suites need to prove that independently-built runs are *identical*,
not statistically close: ``tests/perf`` (optimized kernel vs the frozen
reference) and ``tests/cohorts`` (individual clients vs the condensed
cohort rung).  Both compare :func:`full_snapshot` — every metric a run
produced, plus the kernel's clock and event count, as one comparable
dict — kept here so the two cannot drift apart.  No rewinding is needed
between runs: the ids the simulation reads are numbered per deployment
(``Network.request_ids`` / ``Network.connection_ids``).
"""

from __future__ import annotations

__all__ = ["full_snapshot"]


def full_snapshot(deployment) -> dict:
    """Every metric the run produced — counters in every scope, raw
    time-series buckets, quantile samples (in insertion order, so the
    *sequence* of observations matters, not just the distribution),
    utilization buckets — plus the kernel's clock and event count."""
    metrics = deployment.metrics
    return {
        "global": metrics.global_counters.snapshot(),
        "scoped": {scope: metrics.scoped_counters(scope).snapshot()
                   for scope in metrics.scopes()},
        "series": {name: (series._sums, series._counts)
                   for name, series in sorted(metrics._series.items())},
        "quantiles": {name: list(q._values)
                      for name, q in sorted(metrics._quantiles.items())},
        "utilization": {scope: tracker.busy._buckets
                        for scope, tracker
                        in sorted(metrics._utilization.items())},
        "now": deployment.env.now,
        "eid": deployment.env._eid,
    }
