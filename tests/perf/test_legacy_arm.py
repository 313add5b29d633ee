"""Differential proof for the event-lean CPU, store and timed-wait paths.

Three hot paths schedule fewer kernel events than they used to:

* ``CpuModel.execute`` takes an idle core by counter and yields only
  its service timeout (it used to request a counted ``Resource`` and
  wait for the grant event first);
* producers that never wait on a put call ``Store.put_nowait``, which
  schedules no put event;
* ``with_timeout`` races through one ``settle`` callback per side and a
  bare wake-up event instead of an ``AnyOf`` condition.

The legacy arm monkeypatches the old implementations back in, test-only,
and the same fuzz scenarios and figure-shaped deployment must produce
identical metrics snapshots — every counter, series, quantile sample
and utilization bucket, and the final clock.  Only the event count may
differ, and it must drop.
"""

import sys

import pytest

from repro.netsim import cpu as cpu_mod
from repro.netsim import proc_utils
from repro.netsim.proc_utils import TIMED_OUT
from repro.simkernel.events import AnyOf
from repro.simkernel.resources import Store

from tests.perf.test_differential import (  # noqa: F401 - autouse fixture
    FUZZ_SEEDS,
    _figure_deployment,
    _register_trace_checker,
    run_fuzz,
)


def legacy_execute(self, work_units: float):
    """``CpuModel.execute`` as a counted ``Resource``: grant, then work."""
    if work_units <= 0:
        return
    resource = self.__dict__.get("_legacy_resource")
    if resource is None:
        resource = self._legacy_resource = self.env.make_resource(
            capacity=self.cores)
    with resource.request() as request:
        yield request
        start = self.env.now
        yield self.env.timeout(work_units / self.speed)
        self.tracker.add_busy(start, self.env.now)
        self.total_busy_seconds += self.env.now - start


def legacy_put_nowait(self, item):
    """Every producer paid for a put event it never waited on."""
    self.put(item)


def legacy_with_timeout(env, event, timeout: float):
    """``with_timeout`` as an ``AnyOf`` race between event and deadline."""
    deadline = env.timeout(timeout, value=TIMED_OUT)
    race = AnyOf(env, [event, deadline])
    result = yield race
    if event in result:
        callbacks = deadline.callbacks
        if callbacks is not None:
            try:
                callbacks.remove(race._check)
            except ValueError:
                pass
        cancel = getattr(deadline, "cancel", None)
        if cancel is not None:
            cancel()
        return result[event]
    cancel = getattr(event, "cancel", None)
    if cancel is not None:
        cancel()
    return TIMED_OUT


@pytest.fixture
def legacy(monkeypatch):
    """Patch the three legacy paths in for the duration of one test."""

    def install():
        monkeypatch.setattr(cpu_mod.CpuModel, "execute", legacy_execute)
        monkeypatch.setattr(Store, "put_nowait", legacy_put_nowait)
        live = proc_utils.with_timeout
        # Call sites bind the helper at import: rebind every copy.
        for module in list(sys.modules.values()):
            if getattr(module, "with_timeout", None) is live:
                monkeypatch.setattr(module, "with_timeout",
                                    legacy_with_timeout)

    return install


def _without_eid(snapshot: dict) -> dict:
    return {key: value for key, value in snapshot.items() if key != "eid"}


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_scenario_matches_legacy_arm(seed, legacy):
    _, new_trace, new_snap = run_fuzz(seed)
    legacy()
    _, old_trace, old_snap = run_fuzz(seed)

    assert _without_eid(new_snap) == _without_eid(old_snap), (
        f"seed {seed}: metrics diverged from the legacy arm")
    assert new_trace == old_trace, (
        f"seed {seed}: invariant-tap event ordering diverged")
    assert new_snap["eid"] < old_snap["eid"], "legacy arm did not run"


def test_figure_deployment_matches_legacy_arm(legacy):
    new = _figure_deployment()
    legacy()
    old = _figure_deployment()
    assert _without_eid(new) == _without_eid(old)
    # The lean paths are most of the kernel's per-op work on this shape.
    assert new["eid"] < 0.8 * old["eid"], (new["eid"], old["eid"])
