"""The three release workloads and one simulated run of each.

Every workload builds a :class:`repro.cluster.Deployment` the way the
experiments CLI does (invariant suite attached, request tracing off),
warms it up, releases one tier mid-run through the public release API
and harvests the deployment's own counters.  All traffic is simulated:
clients, links and servers live in one single-threaded process.

A run walks six phases.  ``build`` (topology build and process spawn,
ending when the infrastructure is up and the clients are spawned),
``warmup`` (the cold-start handshake storm settles; not measured),
``steady`` (measured, before the release), ``release`` (release start
until the release process returns), ``tail`` (the drains, re-homes and
replays the release set off run out) and ``harvest``.  Failure shares
count operations attempted from the end of the warm-up on.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.appserver.config import AppServerConfig
from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.cluster.deployment import Deployment
from repro.cluster.spec import DeploymentSpec
from repro.invariants import runtime as invariant_runtime
from repro.metrics.quantiles import summarize
from repro.proxygen.config import ProxygenConfig
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig

__all__ = ["WORKLOADS", "Workload", "RunResult", "GateFailure",
           "build_and_start", "simulate", "digest", "host_clock",
           "invariant_runtime", "summarize"]

PHASES = ("build", "warmup", "steady", "release", "tail", "harvest")

#: Host time is the simulator process's CPU time: the simulation is
#: single-threaded, and CPU time leaves out the time other processes on
#: the machine hold the core.
host_clock = time.process_time


class GateFailure(Exception):
    """A correctness gate broke: the run reports no numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> DeploymentSpec (tracing off; invariants attach later).
    spec: Callable[[int], DeploymentSpec]
    #: deployment -> (the RollingRelease to execute, its batch size).
    release: Callable[[Deployment], tuple]
    #: Sim-second marks: warm-up end, release start, and the tail
    #: length after the release process returns.
    warmup_end: float
    release_at: float
    tail: float
    #: The web op whose simulated latency is reported ("get" | "post").
    main_op: str
    #: Configured MQTT population (0 = no MQTT clients).
    mqtt_population: int
    #: (per-layer harvest, batch size) -> None, or why the release
    #: mechanism did not fire as planned.
    mechanism_gate: Callable[[dict, int], Optional[str]]


# -- workload shapes ---------------------------------------------------------


def _edge_zdr_mixed_spec(seed: int) -> DeploymentSpec:
    # The fig13 shape at 10x the clients: short-request relay dominates.
    return DeploymentSpec(
        seed=seed, edge_proxies=10, origin_proxies=3, app_servers=4,
        brokers=1, web_client_hosts=1, mqtt_client_hosts=1,
        quic_client_hosts=0,
        edge_config=ProxygenConfig(mode="edge", drain_duration=6.0,
                                   enable_takeover=True, enable_dcr=True,
                                   spawn_delay=2.0),
        origin_config=ProxygenConfig(mode="origin", drain_duration=8.0,
                                     enable_takeover=True, enable_dcr=True,
                                     spawn_delay=2.0),
        app_config=AppServerConfig(drain_duration=2.0, restart_downtime=3.0),
        web_workload=WebWorkloadConfig(clients_per_host=400, think_time=0.8,
                                       cacheable_fraction=0.3,
                                       post_fraction=0.05,
                                       post_size_min=150_000,
                                       upload_bandwidth=150_000.0),
        mqtt_workload=MqttWorkloadConfig(users_per_host=400,
                                         publish_interval=4.0),
        quic_workload=None)


def _edge_zdr_mixed_release(dep: Deployment):
    # The window waits out the drain, so it spans FD passing, the two
    # parallel instances and the old instance's exit.
    batch = dep.edge_servers[:max(1, len(dep.edge_servers) // 5)]
    drain = dep.spec.edge_config.drain_duration
    release = RollingRelease(dep.env, batch,
                             RollingReleaseConfig(batch_fraction=1.0,
                                                  post_batch_wait=drain + 1))
    return release, len(batch)


def _takeover_gate(h: dict, batch: int) -> Optional[str]:
    done = h["proxygen.takeover_completed"]
    if done != batch:
        return f"takeover_completed={done:g}, expected the batch size {batch}"
    return None


def _app_ppr_uploads_spec(seed: int) -> DeploymentSpec:
    # Upload-heavy: the byte/chunk path (framing, app server, PPR).
    return DeploymentSpec(
        seed=seed, edge_proxies=4, origin_proxies=2, app_servers=4,
        brokers=1, web_client_hosts=1, mqtt_client_hosts=0,
        quic_client_hosts=0,
        edge_config=ProxygenConfig(mode="edge", drain_duration=10.0,
                                   spawn_delay=2.0),
        origin_config=ProxygenConfig(mode="origin", drain_duration=10.0,
                                     spawn_delay=2.0),
        app_config=AppServerConfig(drain_duration=2.0, restart_downtime=3.0),
        web_workload=WebWorkloadConfig(clients_per_host=240, think_time=0.8,
                                       post_fraction=0.7,
                                       post_size_min=300_000,
                                       post_size_cap=4_000_000,
                                       upload_bandwidth=150_000.0),
        mqtt_workload=None, quic_workload=None)


def _app_ppr_uploads_release(dep: Deployment):
    # One app server at a time (AppServer.restart via the orchestrator).
    release = RollingRelease(
        dep.env, dep.app_servers,
        RollingReleaseConfig(batch_fraction=1 / len(dep.app_servers)))
    return release, 1


def _ppr_gate(h: dict, batch: int) -> Optional[str]:
    if h["proxygen.ppr_379_received"] <= 0:
        return "no 379 PartialPOST reached an Origin proxy"
    return None


def _origin_dcr_mqtt_spec(seed: int) -> DeploymentSpec:
    # Long-lived MQTT tunnels plus a light web population; the Origin
    # tier rolls so every tunnel re-homes through DCR.
    return DeploymentSpec(
        seed=seed, edge_proxies=6, origin_proxies=4, app_servers=2,
        brokers=2, web_client_hosts=1, mqtt_client_hosts=2,
        quic_client_hosts=0, proxy_cores=8,
        edge_config=ProxygenConfig(mode="edge", drain_duration=10.0,
                                   spawn_delay=2.0),
        origin_config=ProxygenConfig(mode="origin", drain_duration=4.0,
                                     enable_takeover=True, enable_dcr=True,
                                     spawn_delay=1.0),
        web_workload=WebWorkloadConfig(clients_per_host=200, think_time=1.0,
                                       cacheable_fraction=0.3,
                                       post_fraction=0.0),
        mqtt_workload=MqttWorkloadConfig(users_per_host=300,
                                         publish_interval=10.0,
                                         ping_interval=10.0),
        quic_workload=None)


def _origin_dcr_mqtt_release(dep: Deployment):
    release = RollingRelease(
        dep.env, dep.origin_servers,
        RollingReleaseConfig(batch_fraction=0.25, post_batch_wait=1.0))
    return release, 1


def _dcr_gate(h: dict, batch: int) -> Optional[str]:
    if h["proxygen.dcr_rehomed"] <= 0:
        return "no MQTT tunnel re-homed through DCR"
    if h["clients.session_broken"] != 0:
        return (f"{h['clients.session_broken']:g} MQTT sessions broke "
                f"during a DCR release")
    return None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("edge_zdr_mixed", _edge_zdr_mixed_spec,
                 _edge_zdr_mixed_release, warmup_end=16.0, release_at=20.0,
                 tail=3.0, main_op="get", mqtt_population=400,
                 mechanism_gate=_takeover_gate),
        Workload("app_ppr_uploads", _app_ppr_uploads_spec,
                 _app_ppr_uploads_release, warmup_end=6.0, release_at=10.0,
                 tail=24.0, main_op="post", mqtt_population=0,
                 mechanism_gate=_ppr_gate),
        Workload("origin_dcr_mqtt", _origin_dcr_mqtt_spec,
                 _origin_dcr_mqtt_release, warmup_end=10.0, release_at=14.0,
                 tail=6.0, main_op="get", mqtt_population=600,
                 mechanism_gate=_dcr_gate),
    )
}


# -- one run -------------------------------------------------------------------


@dataclass
class RunResult:
    """One simulated run: host timings plus its harvested sim half."""

    setup_s: float
    run_host_s: float            # warm-up + steady + release + tail
    release_host_s: float
    phase_host_s: dict[str, float]
    sim: dict                    # deterministic half (see harvest())
    digest: str
    #: Main-op latencies (sim seconds) completed after the warm-up.
    latencies: list[float]
    #: Counter deltas per phase (sim-side, deterministic).
    phase_deltas: dict[str, dict[str, float]]


def build_and_start(workload: Workload, seed: int) -> Deployment:
    """Build, attach invariants, start, and run until the infrastructure
    is up and every client is spawned."""
    dep = Deployment(workload.spec(seed))
    invariant_runtime.install(dep)
    ready = dep.start()
    dep.env.run(until=ready)
    return dep


def simulate(workload: Workload, seed: int, hooks=None) -> RunResult:
    """Run one workload end to end; raise GateFailure on a broken gate.

    ``hooks(phase, begin)`` is called around each phase (the traced run
    opens and closes its spans and profilers there).
    """
    hook = hooks or (lambda phase, begin: None)
    host = {}
    marks = {}
    snaps = {}

    def phase(name, fn):
        hook(name, True)
        begin = host_clock()
        out = fn()
        host[name] = host_clock() - begin
        hook(name, False)
        return out

    dep = phase("build", lambda: build_and_start(workload, seed))
    snaps["build"] = counter_totals(dep)
    phase("warmup", lambda: dep.run(until=workload.warmup_end))
    snaps["warmup"] = counter_totals(dep)
    marks["warmup"] = _window_marks(dep, workload.main_op)
    phase("steady", lambda: dep.run(until=workload.release_at))
    snaps["steady"] = counter_totals(dep)
    marks["release"] = _window_marks(dep, workload.main_op)
    release, batch = workload.release(dep)

    def release_window():
        proc = dep.env.process(release.execute())
        dep.env.run(until=proc)

    phase("release", release_window)
    snaps["release"] = counter_totals(dep)
    release_end = dep.env.now
    phase("tail", lambda: dep.run(until=release_end + workload.tail))
    snaps["tail"] = counter_totals(dep)
    sim, samples = phase("harvest", lambda: harvest(
        dep, workload, release, batch, marks))
    deltas = {}
    previous: dict[str, float] = {}
    for name in PHASES[:-1]:
        now = snaps[name]
        deltas[name] = {k: v - previous.get(k, 0.0) for k, v in now.items()
                        if v != previous.get(k, 0.0)}
        previous = now
    run_host = sum(host[p] for p in ("warmup", "steady", "release", "tail"))
    return RunResult(setup_s=host["build"], run_host_s=run_host,
                     release_host_s=host["release"], phase_host_s=host,
                     sim=sim, digest=digest(sim), latencies=samples,
                     phase_deltas=deltas)


# -- harvest -------------------------------------------------------------------


def counter_totals(dep: Deployment) -> dict[str, float]:
    """Every scoped counter summed by (scope kind, counter name)."""
    out: dict[str, float] = {}
    for scope in dep.metrics.scopes():
        kind = _scope_kind(scope)
        for key, value in dep.metrics.scoped_counters(scope) \
                .snapshot().items():
            name = f"{kind}/{key.split(':', 1)[0]}"
            out[name] = out.get(name, 0.0) + value
    out["simkernel/events"] = float(dep.env._eid)
    return out


def _scope_kind(scope: str) -> str:
    """Fold per-instance scopes: ``edge-proxy-3`` -> ``edge-proxy``."""
    head = scope.split("@", 1)
    base = head[-1].rstrip("0123456789").rstrip("-")
    return base if len(head) == 1 else f"{head[0]}@{base}"


def _web(dep: Deployment, name: str) -> float:
    return dep.metrics.scoped_counters("web-clients").get(name) \
        if dep.web_clients is not None else 0.0


def _mqtt(dep: Deployment, name: str) -> float:
    return dep.metrics.scoped_counters("mqtt-clients").get(name) \
        if dep.mqtt_clients is not None else 0.0


WEB_FAILURES = ("timeout", "conn_reset", "conn_closed", "error", "shed")
CONNECT_FAILURES = ("connect_no_backend", "connect_refused",
                    "connect_timeout")


def _ops(dep: Deployment) -> dict[str, float]:
    """Operation ledger now.  Completed: web GET/POST answered 200 and
    MQTT publishes sent.  Failed: web requests ending in error, timeout,
    reset, close or a 503 shed; TLS and connect failures; broken MQTT
    sessions (keepalive expiry included).  Attempted counts starts, so
    conservation (attempted = completed + failed + in flight) is a
    check, not an identity."""
    completed = _web(dep, "get_ok") + _web(dep, "post_ok") \
        + _mqtt(dep, "publishes_sent")
    web_failed = sum(_web(dep, f"{kind}_{why}")
                     for kind in ("get", "post") for why in WEB_FAILURES) \
        + _web(dep, "request_conn_reset")
    setup_failed = sum(_web(dep, n) + _mqtt(dep, n)
                       for n in ("tls_failed",) + CONNECT_FAILURES) \
        + _mqtt(dep, "connect_failed")
    broken = _mqtt(dep, "session_broken")
    started = _web(dep, "get_started") + _web(dep, "posts_started") \
        + _mqtt(dep, "publishes_sent")
    inflight = (sum(dep.web_clients.inflight.values())
                if dep.web_clients is not None else 0)
    return {"attempted": started + setup_failed + broken,
            "completed": completed,
            "failed": web_failed + setup_failed + broken,
            "inflight": float(inflight)}


def _busy(hosts) -> float:
    return sum(h.cpu.total_busy_seconds for h in hosts)


def _latency(dep: Deployment, op: str):
    return dep.metrics.quantiles(f"client/{op}_latency")


def _window_marks(dep: Deployment, op: str) -> dict:
    return {"t": dep.env.now, "ops": _ops(dep),
            "latency_n": len(_latency(dep, op)),
            "sessions": _mqtt(dep, "sessions_established"),
            "busy": {tier: _busy(getattr(dep, f"{tier}_hosts"))
                     for tier in ("edge", "origin", "app")}}


def _sum_scopes(dep: Deployment, prefixes: tuple, name: str) -> float:
    total = 0.0
    for scope in dep.metrics.scopes():
        if scope.startswith(prefixes):
            counters = dep.metrics.scoped_counters(scope)
            total += sum(v for k, v in counters.snapshot().items()
                         if k == name or k.startswith(name + ":"))
    return total


def harvest(dep: Deployment, workload: Workload, release: RollingRelease,
            batch: int, marks: dict) -> tuple[dict, list[float]]:
    """The deterministic half of one run, and its main-op latencies after
    the warm-up; raises GateFailure."""
    violations = invariant_runtime.drain()
    if violations:
        raise GateFailure(f"{len(violations)} invariant violations, first: "
                          f"{violations[0]}")
    end = _ops(dep)
    if end["attempted"] != end["completed"] + end["failed"] + end["inflight"]:
        raise GateFailure(
            f"conservation broken: {end['attempted']:g} attempted != "
            f"{end['completed']:g} completed + {end['failed']:g} failed + "
            f"{end['inflight']:g} in flight")
    if release.aborted or release.failed_targets:
        raise GateFailure(f"release did not complete: "
                          f"aborted={release.aborted} "
                          f"failed={release.failed_targets}")

    proxy = ("proxygen@",)
    h: dict = {}
    h["simkernel.events"] = float(dep.env._eid)
    now = dep.env.now
    start = marks["warmup"]
    for tier, hosts in (("edge", dep.edge_hosts),
                        ("origin", dep.origin_hosts),
                        ("app", dep.app_hosts)):
        cores = sum(host.cpu.cores for host in hosts)
        busy = _busy(hosts) - start["busy"][tier]
        h[f"netsim.cpu_busy_share.{tier}"] = busy / (cores * (now - start["t"]))
    h["netsim.net_dropped"] = float(dep.network.dropped)

    for name in ("takeover_completed", "dcr_rehomed", "udp_misrouted",
                 "upstream_dial_attempt", "ppr_379_received",
                 "ppr_bytes_replayed"):
        h[f"proxygen.{name}"] = _sum_scopes(dep, proxy, name)
    rehome_failed = _sum_scopes(dep, proxy, "dcr_rehome_failed")
    rehomes = h["proxygen.dcr_rehomed"] + rehome_failed
    h["proxygen.dcr_rehome_ok_ratio"] = (h["proxygen.dcr_rehomed"] / rehomes
                                         if rehomes else None)
    h["proxygen.tcp_rst_sent"] = _sum_scopes(
        dep, ("edge-proxy", "origin-proxy"), "tcp_rst_sent")

    app = ("appserver@",)
    incomplete = (_sum_scopes(dep, app, "http_status:379")
                  + _sum_scopes(dep, app, "http_status:500"))
    h["appserver.posts_incomplete"] = incomplete
    post_failed = (_sum_scopes(dep, proxy, "post_disrupted")
                   + _sum_scopes(dep, proxy, "post_edge_gone"))
    rescued = max(0.0, h["proxygen.ppr_379_received"] - post_failed)
    h["appserver.ppr_rescue_ratio"] = (min(1.0, rescued / incomplete)
                                       if incomplete else None)

    window = {k: end[k] - start["ops"][k]
              for k in ("attempted", "completed", "failed")}
    rel = marks["release"]["ops"]
    h["clients.ops_attempted"] = window["attempted"]
    h["clients.ops_failed"] = window["failed"]
    tls_ok = (_web(dep, "tls_established") + _mqtt(dep, "sessions_established")
              + _mqtt(dep, "connect_failed"))
    tls_failed = _web(dep, "tls_failed") + _mqtt(dep, "tls_failed")
    h["clients.tls_ok_ratio"] = tls_ok / (tls_ok + tls_failed)
    h["clients.conn_reset"] = (_web(dep, "get_conn_reset")
                               + _web(dep, "post_conn_reset")
                               + _web(dep, "request_conn_reset"))
    h["clients.mqtt_reconnects"] = _mqtt(dep, "reconnects")
    h["clients.session_broken"] = _mqtt(dep, "session_broken")

    katran = ("edge-katran@", "origin-katran@")
    h["lb.hc_probe"] = _sum_scopes(dep, katran, "hc_probe")
    h["lb.backend_down"] = _sum_scopes(dep, katran, "backend_down")
    h["release.window_sim_s"] = release.finished_at - release.started_at

    problem = workload.mechanism_gate(h, batch)
    if problem is not None:
        raise GateFailure(f"mechanism did not fire: {problem}")
    sessions = marks["warmup"]["sessions"]
    if sessions < workload.mqtt_population:
        raise GateFailure(
            f"only {sessions:g} MQTT sessions established by the end of the "
            f"warm-up for a population of {workload.mqtt_population} "
            f"(handshake-storm collapse)")

    # Samples after the warm-up: Quantiles keeps append order until its
    # first read, and nothing reads it during a run.
    latency = _latency(dep, workload.main_op)
    samples = latency._values[marks["warmup"]["latency_n"]:]
    summary = summarize(samples, (0.5, 0.99))
    return {
        "ops_completed_run": end["completed"],
        "events": h["simkernel.events"],
        "attempted": int(window["attempted"]),
        "failed": int(window["failed"]),
        "release_attempted": int(end["attempted"] - rel["attempted"]),
        "release_failed": int(end["failed"] - rel["failed"]),
        "latency": summary,
        "release_window": [release.started_at, release.finished_at],
        "layers": h,
        "counters": {scope: dep.metrics.scoped_counters(scope).snapshot()
                     for scope in dep.metrics.scopes()},
    }, samples


def digest(sim) -> str:
    """Hash of the simulated half: counters, events, latency quantiles."""
    blob = json.dumps(sim, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
