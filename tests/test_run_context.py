"""RunContext: one immutable value for the CLI's knobs, one precedence rule.

An explicit spec or config value wins; the run's context only fills
what the caller left ``None`` (resilience excepted: it overrides).
Every fill is counted, so the CLI can name a flag no builder read.
"""

from dataclasses import replace

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.lb.katran import KatranConfig
from repro.ops.load import LoadShapeConfig
from repro.resilience import ResilienceConfig
from repro.run_context import RunContext, current_run, knob, run_context


def _cluster(**spec_kwargs):
    return Deployment(DeploymentSpec(
        seed=0, edge_proxies=2, origin_proxies=1, app_servers=1,
        brokers=1, web_workload=None, mqtt_workload=None,
        quic_workload=None, web_client_hosts=0, mqtt_client_hosts=0,
        quic_client_hosts=0, **spec_kwargs))


def _regional(**spec_kwargs):
    return Deployment(DeploymentSpec(
        seed=0, regions=2, edge_proxies=2, l4lbs_per_pop=2,
        origin_proxies=2, app_servers=2, brokers=1, web_workload=None,
        mqtt_workload=None, quic_workload=None, **spec_kwargs))


BUILDERS = {"cluster": _cluster, "regional": _regional}


def _schemes(deployment) -> set:
    return {katran.config.resolved_scheme()
            for katran in deployment.all_katrans()}


# -- lb_scheme resolution, on both builders ----------------------------------


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_spec_lb_scheme_reaches_every_katran(builder):
    deployment = BUILDERS[builder](lb_scheme="concury")
    assert _schemes(deployment) == {"concury"}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_explicit_katran_scheme_beats_the_runs_lb_scheme(builder):
    with run_context(RunContext(lb_scheme="stateless")) as ctx:
        deployment = BUILDERS[builder](
            katran_config=KatranConfig(lb_scheme="concury"))
    assert _schemes(deployment) == {"concury"}
    assert ctx.reads["lb_scheme"] == 0


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_runs_lb_scheme_fills_an_unset_scheme(builder):
    shared = KatranConfig()
    with run_context(RunContext(lb_scheme="stateful")) as ctx:
        deployment = BUILDERS[builder](katran_config=shared)
    assert _schemes(deployment) == {"stateful"}
    assert ctx.reads["lb_scheme"] == 1
    # The spec's config object is never mutated (arms may share it).
    assert shared.lb_scheme is None


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_resilience_overrides_an_explicit_tier_config(builder):
    with run_context(RunContext(resilience=ResilienceConfig(enabled=True))):
        deployment = BUILDERS[builder]()
    assert all(server.config.resilience.enabled
               for server in deployment.edge_servers)
    assert all(server.config.resilience.enabled
               for server in deployment.app_servers)


# -- the context itself -------------------------------------------------------


def test_default_context_sets_nothing():
    assert current_run() == RunContext()
    assert current_run().set_knobs() == []


@pytest.mark.parametrize("kwargs", [
    dict(lb_scheme="bogus"),
    dict(shards=0),
    dict(load_shape=LoadShapeConfig(kind="nope")),
])
def test_context_validates_on_construction(kwargs):
    with pytest.raises(ValueError):
        RunContext(**kwargs)


def test_run_context_restores_the_previous_context_on_error():
    outer = RunContext(shards=2)
    with run_context(outer):
        with pytest.raises(RuntimeError):
            with run_context(RunContext(shards=3)):
                assert current_run().shards == 3
                raise RuntimeError("harness blew up")
        assert current_run() is outer
    assert current_run() == RunContext()


def test_knob_prefers_explicit_values_and_counts_fills():
    with run_context(RunContext(shards=4)) as ctx:
        assert knob("shards", 2) == 2
        assert ctx.reads["shards"] == 0
        assert knob("shards") == 4
        assert knob("splice") is None  # unset knobs count nothing
    assert dict(ctx.reads) == {"shards": 1}


def test_derived_context_shares_the_read_ledger():
    ctx = RunContext(shards=2, lb_scheme="stateless")
    derived = replace(ctx, lb_scheme=None)
    with run_context(derived):
        knob("shards")
    assert ctx.reads["shards"] == 1
