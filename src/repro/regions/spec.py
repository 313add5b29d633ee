"""WAN geometry and anycast probing knobs of a multi-region deployment."""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.network import LinkProfile

__all__ = ["AnycastConfig", "WanConfig"]


@dataclass(frozen=True)
class WanConfig:
    """Inter-region WAN geometry: a ring of regions, latency by hops.

    Region *i* and *j* sit ``d = min(|i-j|, n-|i-j|)`` hops apart; the
    one-way latency between their sites is ``base_latency +
    hop_latency*d``.  This gives every client a deterministic nearest-
    region order — the anycast map — purely from the topology.
    """

    base_latency: float = 0.035
    hop_latency: float = 0.030
    jitter: float = 0.004
    bandwidth: float = 1.25e9

    def distance(self, i: int, j: int, regions: int) -> int:
        if regions <= 1:
            return abs(i - j)
        around = abs(i - j)
        return min(around, regions - around)

    def latency(self, hops: int) -> float:
        return self.base_latency + self.hop_latency * hops

    def profile(self, hops: int) -> LinkProfile:
        return LinkProfile(latency=self.latency(hops), jitter=self.jitter,
                           bandwidth=self.bandwidth)


@dataclass(frozen=True)
class AnycastConfig:
    """Health probing knobs for the client-side anycast resolvers."""

    probe_interval: float = 1.0
    probe_timeout: float = 0.5
    #: Consecutive probe failures before a region is marked down.
    down_threshold: int = 2
    #: Consecutive probe successes before it is marked up again.
    up_threshold: int = 1
    #: Multiplicative jitter on every probe wait (desynchronizes the
    #: fleet's resolvers).
    jitter: float = 0.2

    def validate(self) -> None:
        if self.probe_interval <= 0 or self.probe_timeout <= 0:
            raise ValueError("probe interval/timeout must be positive")
        if self.down_threshold < 1 or self.up_threshold < 1:
            raise ValueError("thresholds must be >= 1")
