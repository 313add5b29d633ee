"""CohortDriver/CohortSet against a live deployment.

Covers the driver mechanics the differential suite doesn't: the
aggregate rung's weighted lanes, event-driven condensation at a
release boundary, rate-scale fan-out, and the fold-vs-registry
sum-match.
"""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.cohorts import CohortPolicy, modeled
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig


def _deployment(policy, seed=0, **overrides):
    defaults = dict(seed=seed, edge_proxies=2, origin_proxies=1,
                    app_servers=2, brokers=1, web_client_hosts=2,
                    mqtt_client_hosts=1, quic_client_hosts=1,
                    cohorts=policy)
    defaults.update(overrides)
    return Deployment(DeploymentSpec(**defaults))


# -- lanes -------------------------------------------------------------------


def test_condensed_driver_runs_every_modeled_client():
    deployment = _deployment(CohortPolicy(fidelity="condensed"))
    for driver in deployment.cohort_set.drivers:
        assert driver.spawned == driver.cohort.size
        assert driver.weight == 1.0
        assert driver.solo_population is None
        # Condensation is a no-op on this rung (parity with individual).
        assert driver.condense(3) == 0
        assert driver.solo_population is None


def test_aggregate_driver_weights_representatives():
    policy = CohortPolicy(fidelity="aggregate", scale=100,
                          flows_per_representative=50)
    deployment = _deployment(policy)
    web = deployment.cohort_set.drivers_of("web")
    assert web, "no web cohorts compiled"
    per_host = deployment.spec.web_workload.clients_per_host
    for driver in web:
        assert driver.cohort.size == 100 * per_host
        assert driver.spawned == driver.cohort.representatives(policy)
        assert driver.weight * driver.spawned == driver.cohort.size


def test_driver_scopes_nest_under_the_population_prefix():
    deployment = _deployment(CohortPolicy(fidelity="condensed"))
    scopes = {d.scope for d in deployment.cohort_set.drivers}
    assert "web-clients/c0" in scopes and "web-clients/c1" in scopes
    assert "mqtt-clients/c0" in scopes and "quic-clients/c0" in scopes


# -- condensation ------------------------------------------------------------


def test_condense_peels_solo_flows_into_a_solo_lane():
    policy = CohortPolicy(fidelity="aggregate", scale=100)
    deployment = _deployment(policy)
    deployment.start()
    deployment.run(until=2.0)
    driver = deployment.cohort_set.drivers_of("web")[0]
    assert driver.condense(2) == 2
    assert driver.solo_population is not None
    assert driver.solo_population.name == f"{driver.scope}/solo"
    assert driver.condensed_flows == 2
    deployment.run(until=8.0)
    solo = driver.solo_population.counters
    assert solo.get("get_started") > 0, "solo flows never sent traffic"


def test_release_boundary_triggers_condensation():
    policy = CohortPolicy(fidelity="aggregate", scale=100,
                          condense_per_event=2)
    deployment = _deployment(policy)
    deployment.start()
    deployment.run(until=5.0)  # past boot: the cohort set hears releases
    release = RollingRelease(deployment.env, deployment.edge_servers[:1],
                             RollingReleaseConfig(batch_fraction=1.0))
    deployment.env.process(release.execute())
    deployment.run(until=14.0)
    counters = deployment.cohort_set.counters
    assert counters.get("condensations") >= 1
    per_event = policy.condense_per_event
    assert counters.get("condensed_flows") >= \
        per_event * len(deployment.cohort_set.drivers)


def test_condense_per_event_zero_disables_the_observer():
    policy = CohortPolicy(fidelity="aggregate", scale=100,
                          condense_per_event=0)
    deployment = _deployment(policy)
    deployment.start()
    deployment.run(until=5.0)
    release = RollingRelease(deployment.env, deployment.edge_servers[:1],
                             RollingReleaseConfig(batch_fraction=1.0))
    deployment.env.process(release.execute())
    deployment.run(until=14.0)
    assert deployment.cohort_set.counters.get("condensations") == 0
    assert all(d.solo_population is None
               for d in deployment.cohort_set.drivers)


# -- load control ------------------------------------------------------------


def test_rate_scale_fans_out_to_every_lane():
    policy = CohortPolicy(fidelity="aggregate", scale=100)
    deployment = _deployment(policy)
    deployment.start()
    deployment.run(until=1.0)
    driver = deployment.cohort_set.drivers_of("web")[0]
    driver.condense(1)
    driver.set_rate_scale(2.5)
    assert driver.population.rate_scale == pytest.approx(2.5)
    assert driver.solo_population.rate_scale == pytest.approx(2.5)


def test_rate_scale_composes_with_the_cohort_multiplier():
    from dataclasses import replace

    policy = CohortPolicy(fidelity="aggregate", scale=100)
    deployment = _deployment(policy)
    driver = deployment.cohort_set.drivers_of("web")[0]
    driver.cohort = replace(driver.cohort, rate_scale=0.5)
    driver.set_rate_scale(3.0)
    assert driver.population.rate_scale == pytest.approx(1.5)


# -- accounting --------------------------------------------------------------


def test_aggregate_fold_matches_the_metrics_registry():
    policy = CohortPolicy(fidelity="aggregate", scale=100)
    deployment = _deployment(policy)
    deployment.start()
    deployment.run(until=8.0)
    for driver in deployment.cohort_set.drivers:
        agg = driver.aggregate()
        for name, value in agg.rep_counts.items():
            assert deployment.metrics.scoped_counters(
                driver.scope).get(name) == value
        weighted = modeled(agg)
        for name, raw in agg.rep_counts.items():
            assert weighted[name] == pytest.approx(raw * driver.weight)


def test_modeled_inflight_weights_the_representative_lane():
    policy = CohortPolicy(fidelity="aggregate", scale=100)
    deployment = _deployment(policy)
    deployment.start()
    deployment.run(until=5.25)  # mid-run: some requests are in flight
    drivers = deployment.cohort_set.drivers_of("web")
    inflight = [d.modeled_inflight() for d in drivers]
    for driver, modeled_pending in zip(drivers, inflight):
        raw = getattr(driver.population, "inflight", {})
        for kind, value in raw.items():
            assert modeled_pending.get(kind, 0.0) == \
                pytest.approx(value * driver.weight)


def test_populations_view_lists_every_lane():
    policy = CohortPolicy(fidelity="aggregate", scale=100)
    deployment = _deployment(policy)
    deployment.start()
    deployment.run(until=1.0)
    cohort_set = deployment.cohort_set
    before = len(cohort_set.populations())
    cohort_set.drivers_of("web")[0].condense(1)
    assert len(cohort_set.populations()) == before + 1
    assert len(cohort_set.populations("web")) == 3  # 2 reps + 1 solo
    assert deployment.web_populations == cohort_set.populations("web")
