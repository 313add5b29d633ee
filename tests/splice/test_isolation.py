"""Run isolation: a release or a fault touches only its own deployment.

Two deployments built side by side in one process must not hear about
each other's mechanism windows.  A fault window on deployment A may
de-splice A's bulk transfers, never B's; a release walking A's Edge
tier may condense A's cohorts and land in A's invariant suite, never
B's.  Each test builds both deployments *before* running either, so a
process-global broadcast would reach both.
"""

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.cohorts import CohortPolicy
from repro.faults.plan import builtin_plan
from repro.invariants.base import InvariantChecker, InvariantSuite
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.splice import SpliceConfig


def _spec(seed: int, **overrides) -> DeploymentSpec:
    defaults = dict(seed=seed, edge_proxies=2, origin_proxies=1,
                    app_servers=2, brokers=1, web_client_hosts=1,
                    mqtt_client_hosts=1, quic_client_hosts=0,
                    splice=SpliceConfig())
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


class _Recorder(InvariantChecker):
    """Remembers every tap event name its suite dispatches."""

    name = "recorder"

    def __init__(self) -> None:
        super().__init__()
        self.events: list[str] = []

    def on_event(self, event: str, **fields) -> None:
        self.events.append(event)


def test_fault_on_one_deployment_leaves_the_other_spliced():
    a = Deployment(_spec(1),
                   fault_plan=builtin_plan("edge-brownout", at=2.0,
                                           duration=30.0))
    b = Deployment(_spec(2))
    a.start()
    a.run(until=6.0)  # inside A's fault window
    assert not a.splice.engaged
    assert a.splice.desplices == 1
    b.start()
    b.run(until=10.0)
    assert b.splice.engaged
    assert b.splice.desplices == 0
    assert b.splice._suspended == {}


def test_release_on_one_deployment_reaches_only_its_owner():
    policy = CohortPolicy(fidelity="aggregate", scale=100,
                          condense_per_event=2)
    a = Deployment(_spec(1, cohorts=policy))
    b = Deployment(_spec(2, cohorts=policy))
    recorders = {}
    for name, deployment in (("a", a), ("b", b)):
        recorders[name] = _Recorder()
        InvariantSuite(deployment, checkers=[recorders[name]]).attach()
        deployment.start()
        deployment.run(until=5.0)  # past boot: cohorts are live
    release = RollingRelease(a.env, a.edge_servers,
                             RollingReleaseConfig(batch_fraction=0.5))
    a.env.process(release.execute())
    a.run(until=30.0)
    assert release.finished_at is not None

    assert a.cohort_set.counters.get("condensations") >= 1
    assert b.cohort_set.counters.get("condensations") == 0
    assert all(d.solo_population is None for d in b.cohort_set.drivers)
    assert recorders["a"].events.count("release_begin") == 1
    assert recorders["a"].events.count("release_end") == 1
    assert not any(e.startswith("release_") for e in recorders["b"].events)
    assert b.splice.engaged and b.splice.desplices == 0
    assert a.splice.desplices >= 1
