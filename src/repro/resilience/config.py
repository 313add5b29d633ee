"""Knobs for the resilient data plane.

One :class:`ResilienceConfig` travels on ``ProxygenConfig.resilience``
and ``AppServerConfig.resilience``; everything defaults to *disabled* so
the paper-faithful baseline behaviour (blind round-robin, bare retry
loops, no shedding) is untouched unless an experiment opts in.

Determinism contract: nothing in this package may call ``random`` or
wall-clock time directly — every jitter draw comes from a named
:mod:`repro.simkernel.rng` stream and every clock read from the sim
environment, so resilience decisions replay identically under one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResilienceConfig"]


@dataclass
class ResilienceConfig:
    """All resilience knobs for one tier (proxy or app server).

    Grouped by mechanism: passive health / outlier ejection, circuit
    breaking, retry budgets + backoff, hedging, and admission control.
    """

    enabled: bool = False

    # -- passive health + outlier ejection (§3 capacity crunch) ----------
    #: EWMA smoothing factor for per-backend latency and error rate.
    ewma_alpha: float = 0.3
    #: EWMA latency (seconds) above which a backend is an outlier.
    latency_threshold: float = 1.5
    #: EWMA error rate above which a backend is an outlier.
    error_rate_threshold: float = 0.4
    #: Samples required before a backend may be ejected.
    min_samples: int = 5
    #: Base ejection duration (seconds); doubles per consecutive
    #: re-ejection up to ``ejection_max_duration``.
    ejection_duration: float = 8.0
    ejection_max_duration: float = 60.0
    #: ± fraction of the duration applied as deterministic jitter so
    #: re-admission probes from many balancers do not synchronize.
    ejection_jitter: float = 0.25
    #: Never hold more than this fraction of the pool ejected at once.
    max_ejected_fraction: float = 0.5

    # -- circuit breakers (per upstream destination) ---------------------
    #: Consecutive failures that trip a breaker open.
    breaker_consecutive_failures: int = 5
    #: Error ratio over the rolling window that trips a breaker.
    breaker_error_ratio: float = 0.6
    #: Rolling outcome-window size for the ratio condition.
    breaker_window: int = 20
    #: Outcomes required in the window before the ratio may trip.
    breaker_min_requests: int = 10
    #: Seconds a tripped breaker stays open (± jitter) before allowing a
    #: half-open probe.
    breaker_open_duration: float = 5.0
    breaker_open_jitter: float = 0.25
    #: Successful half-open probes required to close again.
    breaker_half_open_successes: int = 2

    # -- retry budget + jittered exponential backoff ---------------------
    #: Total attempts per request (first try + budgeted retries).
    retry_max_attempts: int = 3
    retry_base_delay: float = 0.05
    retry_backoff_factor: float = 2.0
    retry_max_delay: float = 2.0
    #: Jitter: the actual delay is uniform in [delay*(1-j), delay*(1+j)].
    retry_jitter: float = 0.5
    #: Token-bucket budget: each request deposits this many tokens, each
    #: retry withdraws 1.0 — i.e. at most ~ratio retries per request in
    #: steady state, with a small floor for bursts.
    retry_budget_ratio: float = 0.2
    retry_budget_floor: float = 10.0

    # -- hedged requests (idempotent short requests only) ----------------
    hedge_enabled: bool = True
    #: Fire a hedge to a second backend after this long without a reply.
    hedge_delay: float = 0.5
    #: Hedge token-bucket ratio (hedges per request).
    hedge_budget_ratio: float = 0.05

    # -- admission control / load shedding -------------------------------
    #: Concurrent in-flight requests one serving process accepts.
    max_inflight: int = 512
    #: A draining generation shrinks its intake to this fraction.
    drain_inflight_factor: float = 0.25
    #: Retry-After hint (seconds) sent with shed 503s.
    shed_retry_after: float = 1.0

    def validate(self) -> None:
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.latency_threshold <= 0:
            raise ValueError("latency_threshold must be positive")
        if not 0 < self.error_rate_threshold <= 1:
            raise ValueError("error_rate_threshold must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.ejection_duration <= 0 \
                or self.ejection_max_duration < self.ejection_duration:
            raise ValueError("bad ejection durations")
        if not 0 <= self.ejection_jitter < 1:
            raise ValueError("ejection_jitter must be in [0, 1)")
        if not 0 < self.max_ejected_fraction <= 1:
            raise ValueError("max_ejected_fraction must be in (0, 1]")
        if self.breaker_consecutive_failures < 1:
            raise ValueError("breaker_consecutive_failures must be >= 1")
        if not 0 < self.breaker_error_ratio <= 1:
            raise ValueError("breaker_error_ratio must be in (0, 1]")
        if self.breaker_window < self.breaker_min_requests:
            raise ValueError("breaker_window must cover breaker_min_requests")
        if self.breaker_open_duration <= 0:
            raise ValueError("breaker_open_duration must be positive")
        if self.retry_max_attempts < 0:
            raise ValueError("retry_max_attempts must be >= 0")
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ValueError("retry delays must be non-negative")
        if self.retry_backoff_factor < 1:
            raise ValueError("retry_backoff_factor must be >= 1")
        if not 0 <= self.retry_jitter < 1:
            raise ValueError("retry_jitter must be in [0, 1)")
        if self.retry_budget_ratio < 0 or self.retry_budget_floor < 0:
            raise ValueError("retry budget must be non-negative")
        if self.hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive")
        if self.hedge_budget_ratio < 0:
            raise ValueError("hedge_budget_ratio must be non-negative")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 0 < self.drain_inflight_factor <= 1:
            raise ValueError("drain_inflight_factor must be in (0, 1]")
        if self.shed_retry_after < 0:
            raise ValueError("shed_retry_after must be non-negative")
