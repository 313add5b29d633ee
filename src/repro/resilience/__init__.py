"""Resilient data plane: outlier ejection, breakers, budgets, shedding.

The defensive layer the fault plans of :mod:`repro.faults` attack:

* passive health + outlier ejection (:mod:`.health`) — per-backend EWMA
  of latency/error rate, temporary ejection, jittered re-admission;
* circuit breakers (:mod:`.breaker`) per upstream destination;
* retry budgets + jittered exponential backoff, hedged requests
  (:mod:`.retry`);
* admission control / load shedding (:mod:`.admission`).

Everything is deterministic: sim clock + named RNG streams only (CI
lints that no module here imports ``random`` directly).
"""

from .admission import AdmissionController
from .breaker import BreakerBoard, CircuitBreaker
from .config import ResilienceConfig
from .health import BackendStats, OutlierTracker
from .plane import ResiliencePlane
from .retry import BackoffPolicy, RetryBudget

__all__ = [
    "AdmissionController",
    "BackendStats",
    "BackoffPolicy",
    "BreakerBoard",
    "CircuitBreaker",
    "OutlierTracker",
    "ResilienceConfig",
    "ResiliencePlane",
    "RetryBudget",
]
