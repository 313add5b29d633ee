"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig09 [--seed 3]
    python -m repro.experiments all [--seed 3]
    python -m repro.experiments fig12 --faults hc-flap-storm

Runs the named figure harness(es) and prints the rows the paper's figure
plots, plus the PASS/FAIL state of every shape claim.  ``--faults PLAN``
reruns the figure under a named fault plan (see ``repro.faults``): every
deployment the harness builds gets the plan attached, and the faults
summary is printed with the results.

The knob flags become one :class:`repro.run_context.RunContext` for the
whole invocation.  A flag that reached no deployment in a figure is
named under that figure's results, and one that reached none at all
makes the run exit 2: it would otherwise silently do nothing.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cohorts import COHORT_FIDELITIES, CohortPolicy
from ..faults import BUILTIN_PLANS, builtin_plan
from ..invariants import runtime as invariant_runtime
from ..lb.routers import ROUTER_SCHEMES
from ..metrics.report import render_faults, render_series
from ..ops import CanaryConfig, CanaryController, LOAD_SHAPE_KINDS, \
    named_load_shape
from ..resilience import ResilienceConfig
from ..run_context import KNOB_FLAGS, RunContext, run_context
from ..splice import SpliceConfig
from ..trace import runtime as trace_runtime
from ..trace.collector import TraceConfig
from ..trace.render import render_trace_report
from . import ALL_EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures of the Zero Downtime Release paper")
    parser.add_argument("figure",
                        help="figure id (e.g. fig09), 'all', or 'list'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-plots", action="store_true",
                        help="skip the sparkline rendering of series")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="rerun under a named fault plan "
                             "(see 'list' for the available plans)")
    parser.add_argument("--faults-at", type=float, default=5.0,
                        help="inject the plan this many sim-seconds in")
    parser.add_argument("--faults-duration", type=float, default=30.0,
                        help="clear the plan after this many sim-seconds")
    parser.add_argument("--resilience", action="store_true",
                        help="enable the resilient data plane (outlier "
                             "ejection, breakers, retry budgets, load "
                             "shedding) in every deployment built")
    parser.add_argument("--lb-scheme", choices=list(ROUTER_SCHEMES),
                        default=None,
                        help="L4LB flow-routing policy for every Katran "
                             "built (default: the paper's LRU hybrid)")
    parser.add_argument("--load-shape", choices=list(LOAD_SHAPE_KINDS),
                        default=None,
                        help="modulate every deployment's client arrival "
                             "rates with this load shape (repro.ops)")
    parser.add_argument("--load-horizon", type=float, default=60.0,
                        help="with --load-shape: sim seconds the shape's "
                             "timings are scaled to")
    parser.add_argument("--cohorts", type=int, metavar="SCALE",
                        default=None,
                        help="drive clients through the cohort layer "
                             "(repro.cohorts) with this client-count "
                             "multiplier (1 = same size, 100 = the "
                             "100x fluid)")
    parser.add_argument("--cohort-fidelity", choices=list(COHORT_FIDELITIES),
                        default="auto",
                        help="with --cohorts: fidelity ladder rung "
                             "(default: auto — condensed below 256 "
                             "modeled clients per cohort, aggregate "
                             "above)")
    parser.add_argument("--splice", action="store_true",
                        help="enable the splice fast path (repro.splice): "
                             "bulk uploads collapse into single transfer "
                             "events outside release/fault windows")
    parser.add_argument("--shards", type=int, metavar="N", default=None,
                        help="worker processes for the shard-aware "
                             "harnesses (shardscale): partition "
                             "independent regions across N forked "
                             "workers and merge deterministically")
    parser.add_argument("--canary", action="store_true",
                        help="gate every rolling release behind canary "
                             "analysis (repro.ops.canary) with default "
                             "judgment settings")
    parser.add_argument("--trace", action="store_true",
                        help="trace sampled requests end to end and print "
                             "the most interesting span trees")
    parser.add_argument("--trace-json", metavar="PATH", default=None,
                        help="with --trace: also write the full trace "
                             "export as JSON to PATH (suffixed with the "
                             "figure id when running several figures)")
    args = parser.parse_args(argv)

    if args.figure == "list":
        for key, module in sorted(ALL_EXPERIMENTS.items()):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{key:8s} {doc}")
        print("\nfault plans (--faults):")
        for key, (_, description) in sorted(BUILTIN_PLANS.items()):
            print(f"{key:18s} {description}")
        return 0

    if args.trace_json is not None and not args.trace:
        print("--trace-json requires --trace", file=sys.stderr)
        return 2
    try:
        ctx = RunContext(
            faults=(None if args.faults is None else builtin_plan(
                args.faults, at=args.faults_at,
                duration=args.faults_duration)),
            resilience=(ResilienceConfig(enabled=True)
                        if args.resilience else None),
            lb_scheme=args.lb_scheme,
            load_shape=(None if args.load_shape is None else
                        named_load_shape(args.load_shape,
                                         args.load_horizon)),
            cohorts=(None if args.cohorts is None else CohortPolicy(
                fidelity=args.cohort_fidelity, scale=args.cohorts)),
            splice=SpliceConfig() if args.splice else None,
            shards=args.shards,
            release_gate=((lambda release: CanaryController(
                release.env, CanaryConfig())) if args.canary else None),
            trace=TraceConfig() if args.trace else None)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.figure == "all":
        names = sorted(ALL_EXPERIMENTS)
    elif args.figure in ALL_EXPERIMENTS:
        names = [args.figure]
    else:
        print(f"unknown figure {args.figure!r}; try 'list'",
              file=sys.stderr)
        return 2

    all_ok = True
    try:
        with run_context(ctx):
            for name in names:
                all_ok = _run_figure(name, args, ctx,
                                     multiple=len(names) > 1) and all_ok
    finally:
        trace_runtime.drain()
        invariant_runtime.drain()  # reset registry for in-process callers
    unused = [KNOB_FLAGS[knob] for knob in ctx.set_knobs()
              if not ctx.reads[knob]]
    if unused:
        print(f"{', '.join(unused)}: reached no deployment in "
              f"{args.figure!r}; refusing to pass a run the flag did "
              f"not touch", file=sys.stderr)
        return 2
    return 0 if all_ok else 1


def _run_figure(name: str, args, ctx: RunContext, multiple: bool) -> bool:
    """Run and print one figure; True when its claims and invariants
    hold."""
    start = time.time()
    reads_before = ctx.reads.copy()
    result = ALL_EXPERIMENTS[name].run(seed=args.seed)
    result.print()
    ok = result.all_claims_hold
    checked = bool(invariant_runtime.active_suites())
    violations = invariant_runtime.drain()
    if violations:
        ok = False
        broken = sorted({v.checker for v in violations})
        print(f"   INVARIANT VIOLATIONS ({len(violations)}) "
              f"from checkers: {', '.join(broken)}")
        for violation in violations[:10]:
            print(f"     {violation}")
        if len(violations) > 10:
            print(f"     ... and {len(violations) - 10} more")
    elif checked:
        print("   invariants: all checkers clean")
    else:
        print("   invariants: no checkers installed")
    unread = [knob for knob in ctx.set_knobs()
              if ctx.reads[knob] == reads_before[knob]]
    for knob in unread:
        print(f"   {KNOB_FLAGS[knob]}: reached no deployment")
    if ctx.faults is not None and "faults" not in unread \
            and not result.faults:
        # The harness did not surface an injector summary itself;
        # still label the run so it can't pass as a baseline.
        for row in render_faults({"plan": args.faults}):
            print("   " + row)
    if args.trace:
        _report_traces(name, args.trace_json, multiple=multiple)
    if not args.no_plots:
        for series_name, series in sorted(result.series.items()):
            print("   " + render_series(series_name, series, width=56))
    print(f"   ({time.time() - start:.1f}s wall)")
    return ok


def _report_traces(figure: str, json_path, multiple: bool) -> None:
    """Print the span-tree report (and dump JSON) for one figure's run."""
    collectors = trace_runtime.drain()
    for collector in collectors:
        doc = collector.to_dict()
        for row in render_trace_report(doc):
            print("   " + row)
        if json_path is not None:
            path = json_path
            if multiple or len(collectors) > 1:
                suffix = figure if len(collectors) == 1 \
                    else f"{figure}-{collectors.index(collector)}"
                if "." in path.rsplit("/", 1)[-1]:
                    stem, ext = path.rsplit(".", 1)
                    path = f"{stem}-{suffix}.{ext}"
                else:
                    path = f"{path}-{suffix}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(collector.to_json())
            print(f"   trace export written to {path}")


if __name__ == "__main__":
    sys.exit(main())
