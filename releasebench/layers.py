"""The traced run: per-layer self time and calls, phase spans, deltas.

A layer is a ``repro.<package>``.  The profiler is switched on by the
benchmark's own code around each phase (build, warm-up, steady,
release, tail, harvest), so nothing inside the program changes.  Self
time and call counts go to the package whose file defines the function;
generator resumptions count as calls, so call counts are exact for a
seed.  Functions outside ``repro`` (stdlib, builtins such as heapq and
deque methods) are the ``other`` layer, the benchmark's own functions
the ``bench`` layer.  Spans and deltas stay in memory until the run
ends.
"""

from __future__ import annotations

import cProfile
import time
import uuid
from pathlib import Path

import repro

__all__ = ["LayerProfiler"]

_REPRO = str(Path(repro.__file__).resolve().parent) + "/"
_BENCH = str(Path(__file__).resolve().parent) + "/"


def layer_of(code) -> str:
    """The layer that owns a profiled function."""
    filename = getattr(code, "co_filename", None)
    if filename is None:
        return "other"  # a builtin: cProfile labels it with a string
    if filename.startswith(_REPRO):
        head = filename[len(_REPRO):].split("/", 1)
        return head[0] if len(head) == 2 else "repro"
    if filename.startswith(_BENCH):
        return "bench"
    return "other"


class LayerProfiler:
    """Phase hook for :func:`workloads.simulate` that records spans."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self._origin = time.perf_counter()
        self.root = {"span_id": 0, "parent_id": None, "run_id": self.run_id,
                     "name": "run", "start_s": 0.0, "end_s": None}
        self.spans: list[dict] = [self.root]
        self._open = None
        self._profile = None
        self._layer_cache: dict = {}

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def __call__(self, phase: str, begin: bool) -> None:
        if begin:
            self._open = {"span_id": len(self.spans), "parent_id": 0,
                          "run_id": self.run_id, "name": phase,
                          "start_s": self._now()}
            self._profile = cProfile.Profile()
            self._profile.enable()
            return
        self._profile.disable()
        span = self._open
        span["end_s"] = self._now()
        span["layers"] = self._attribute(self._profile.getstats())
        self.spans.append(span)
        self._profile = self._open = None

    def _attribute(self, stats) -> dict:
        layers: dict[str, dict] = {}
        cache = self._layer_cache
        for entry in stats:
            code = entry.code
            layer = cache.get(code)
            if layer is None:
                layer = cache[code] = layer_of(code)
            slot = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            slot["self_s"] += entry.inlinetime
            slot["calls"] += entry.callcount
        return layers

    def finish(self) -> dict:
        """Close the root span; per-layer totals over every phase."""
        self.root["end_s"] = self._now()
        totals: dict[str, dict] = {}
        for span in self.spans[1:]:
            for layer, slot in span["layers"].items():
                total = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
                total["self_s"] += slot["self_s"]
                total["calls"] += slot["calls"]
        return totals
