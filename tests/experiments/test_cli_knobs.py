"""CLI knob flags either reach a deployment or the run says so.

Every knob flag becomes a field of the invocation's ``RunContext``;
builders count each value they take from it.  A set flag that no
builder of a figure read is named under that figure, and one that no
builder read in the whole invocation makes the CLI exit 2.
"""

import pytest

from repro.experiments import region_evac
from repro.experiments.__main__ import main
from repro.lb.routers import ROUTER_SCHEMES


@pytest.mark.parametrize("argv, flag", [
    # fig16's default path is analytic: no deployment reads the plan.
    (["fig16", "--faults", "hc-flap-storm"], "--faults"),
    # The ablation drives Katrans directly, each with its own scheme.
    (["lbablation", "--lb-scheme", "stateless"], "--lb-scheme"),
    # The regional builder has no splice or cohort layer.
    (["regionevac", "--splice"], "--splice"),
    (["regionevac", "--cohorts", "10"], "--cohorts"),
    # shardscale shelves the plan around the sharded run.
    (["shardscale", "--faults", "hc-flap-storm"], "--faults"),
])
def test_flag_that_reaches_no_deployment_exits_2(argv, flag, capsys):
    code = main(argv + ["--no-plots"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"   {flag}: reached no deployment" in captured.out
    assert flag in captured.err
    # No fault label on a figure that never read the plan.
    assert "faults: plan 'hc-flap-storm'" not in captured.out


@pytest.mark.parametrize("argv", [
    ["fig13", "--splice"],
    # With two shards every deployment is built in a forked worker; the
    # workers' reads must still reach the CLI's run context.
    ["shardscale", "--shards", "2", "--resilience"],
])
def test_consumed_flags_print_no_unconsumed_line(argv, capsys):
    code = main(argv + ["--no-plots"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reached no deployment" not in out


def test_regionevac_lb_scheme_keeps_each_arms_own_scheme(monkeypatch,
                                                         capsys):
    built = []
    build = region_evac.build_regional_deployment

    def recording_build(**kwargs):
        deployment = build(**kwargs)
        built.append(deployment)
        return deployment

    monkeypatch.setattr(region_evac, "build_regional_deployment",
                        recording_build)
    code = main(["regionevac", "--lb-scheme", "stateless", "--no-plots"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reached no deployment" not in out
    schemes = sorted(ROUTER_SCHEMES)
    evac, partition = built[:len(schemes)], built[len(schemes):]
    for scheme, deployment in zip(schemes, evac):
        assert f"evac[{scheme}].finished_at" in out
        assert {k.config.lb_scheme
                for k in deployment.all_katrans()} == {scheme}
    # The partition arms leave the scheme unset: --lb-scheme fills it.
    assert len(partition) == 2
    for deployment in partition:
        assert {k.config.lb_scheme
                for k in deployment.all_katrans()} == {"stateless"}
