"""Host CPU model: a cores×speed work server with busy-time accounting.

All application work (request parsing, TLS handshakes, relaying, cache
priming) is expressed in *work units*; a host executes
``cores × speed`` units per second.  Busy time is recorded into a
:class:`~repro.metrics.timeline.UtilizationTracker` so experiments can
read cluster idle-CPU exactly the way the paper does.
"""

from __future__ import annotations

from collections import deque

from ..metrics.timeline import UtilizationTracker
from ..simkernel.core import Environment

__all__ = ["CpuModel", "CpuCosts"]


class CpuCosts:
    """Work-unit prices for common operations (tunable per experiment).

    Calibration anchor: one work unit ≈ the cost of serving one plain
    HTTP request, and a TLS handshake costs several times that — which
    is what makes reconnect storms expensive (§2.5: 10% of proxies
    restarting burns ~20% of app-tier CPU on state rebuild).
    """

    def __init__(self,
                 http_request: float = 1.0,
                 tcp_handshake: float = 0.4,
                 tls_handshake: float = 4.0,
                 relay_message: float = 0.08,
                 mqtt_publish: float = 0.15,
                 udp_packet: float = 0.05,
                 post_byte: float = 2e-6,
                 health_check: float = 0.02,
                 process_spawn: float = 50.0,
                 cache_priming: float = 400.0):
        self.http_request = http_request
        self.tcp_handshake = tcp_handshake
        self.tls_handshake = tls_handshake
        self.relay_message = relay_message
        self.mqtt_publish = mqtt_publish
        self.udp_packet = udp_packet
        self.post_byte = post_byte
        self.health_check = health_check
        self.process_spawn = process_spawn
        self.cache_priming = cache_priming


class CpuModel:
    """A host's CPU: ``cores`` parallel servers of ``speed`` units/sec.

    Cores are taken by counter: an uncontended charge costs exactly one
    kernel event (its service timeout).  When every core is busy, a
    charge parks on a grant event in a FIFO, and a finishing charge
    hands its core straight to the head waiter — the grant order, grant
    ticks and event order of a counted FIFO resource, minus the grant
    event of every uncontended charge.
    """

    def __init__(self, env: Environment, cores: int = 8, speed: float = 100.0,
                 tracker: UtilizationTracker | None = None,
                 bucket_width: float = 1.0):
        if cores <= 0 or speed <= 0:
            raise ValueError("cores and speed must be positive")
        self.env = env
        self.cores = cores
        self.speed = speed
        #: Cores held by running (or granted, not yet resumed) charges.
        self.busy_cores = 0
        #: Grant events of charges waiting for a core, in arrival order.
        self._waiters: deque = deque()
        self.tracker = tracker or UtilizationTracker(
            bucket_width, capacity=cores)
        self.total_busy_seconds = 0.0

    @property
    def capacity_units_per_second(self) -> float:
        return self.cores * self.speed

    def execute(self, work_units: float):
        """Generator: occupy one core for ``work_units / speed`` seconds.

        Use as ``yield from cpu.execute(cost)`` inside a simulation
        process, or wrap with ``env.process`` for fire-and-forget work.
        An interrupted charge books no busy time: a queued one leaves
        the FIFO, a running one frees its core at the interrupt tick.
        """
        if work_units <= 0:
            return
        env = self.env
        if self.busy_cores < self.cores:
            self.busy_cores += 1
        else:
            grant = env.event()
            self._waiters.append(grant)
            try:
                yield grant
            except BaseException:
                if grant.triggered:
                    self._free_core()  # granted, but never started
                else:
                    self._waiters.remove(grant)
                raise
        start = env.now
        try:
            yield env.timeout(work_units / self.speed)
        except BaseException:
            self._free_core()
            raise
        end = env.now
        self.tracker.add_busy(start, end)
        self.total_busy_seconds += end - start
        self._free_core()

    def _free_core(self) -> None:
        """Hand the core to the head waiter, or return it to the pool."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.busy_cores -= 1

    def background(self, work_units: float) -> None:
        """Fire-and-forget CPU burn (e.g. cache priming of a new instance)."""
        self.env.process(self.execute(work_units))

    def utilization(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.utilization(start, end)

    def idle(self, start: float, end: float) -> list[tuple[float, float]]:
        return self.tracker.idle(start, end)
