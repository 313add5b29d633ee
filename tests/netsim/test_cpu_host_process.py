"""CPU model, host plumbing and OS-process lifecycle."""

import pytest

from repro.netsim import (
    CpuCosts,
    CpuModel,
    Endpoint,
    ProcessDeadError,
    StreamMessage,
)
from repro.simkernel import Environment


def test_cpu_execute_takes_work_over_speed():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=10.0)
    done = []

    def worker():
        yield from cpu.execute(5.0)   # 0.5s at 10 units/s
        done.append(env.now)

    env.process(worker())
    env.run()
    assert done == [0.5]


def test_cpu_cores_limit_parallelism():
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=1.0)
    done = []

    def worker(label):
        yield from cpu.execute(1.0)
        done.append((label, env.now))

    for label in "abc":
        env.process(worker(label))
    env.run()
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_cpu_zero_work_is_free():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []

    def worker():
        yield from cpu.execute(0)
        done.append(env.now)
        yield env.timeout(0)

    env.process(worker())
    env.run()
    assert done == [0.0]


def test_cpu_tracks_busy_time_and_utilization():
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=1.0, bucket_width=1.0)

    def worker():
        yield from cpu.execute(2.0)

    env.process(worker())
    env.process(worker())
    env.run()
    assert cpu.total_busy_seconds == pytest.approx(4.0)
    utilization = dict(cpu.utilization(0, 2))
    assert utilization[0.0] == pytest.approx(1.0)  # both cores busy
    idle = dict(cpu.idle(0, 2))
    assert idle[0.0] == pytest.approx(0.0)


def test_cpu_background_runs_detached():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    cpu.background(3.0)
    env.run()
    assert cpu.total_busy_seconds == pytest.approx(3.0)


def test_cpu_validation():
    env = Environment()
    with pytest.raises(ValueError):
        CpuModel(env, cores=0)
    with pytest.raises(ValueError):
        CpuModel(env, cores=1, speed=0)


def test_cpu_grants_cores_in_fifo_order_under_contention():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []

    def worker(label, arrive, work):
        yield env.timeout(arrive)
        yield from cpu.execute(work)
        done.append((label, env.now))

    # b and c queue behind a; c's shorter charge does not jump b.
    env.process(worker("a", 0.0, 2.0))
    env.process(worker("b", 0.5, 3.0))
    env.process(worker("c", 1.0, 1.0))
    env.process(worker("d", 6.5, 1.0))  # arrives to an idle core
    env.run()
    assert done == [("a", 2.0), ("b", 5.0), ("c", 6.0), ("d", 7.5)]
    assert cpu.busy_cores == 0
    assert cpu.total_busy_seconds == pytest.approx(7.0)


def _interrupt_at(env, proc, at):
    def interrupter():
        yield env.timeout(at)
        proc.interrupt("stop")
    env.process(interrupter())


def test_cpu_interrupted_queued_charge_leaves_the_fifo():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []

    def worker(label, work):
        yield from cpu.execute(work)
        done.append((label, env.now))

    env.process(worker("a", 1.0))
    queued = env.process(worker("b", 5.0))
    env.process(worker("c", 1.0))
    _interrupt_at(env, queued, 0.5)
    env.run()
    assert done == [("a", 1.0), ("c", 2.0)]
    assert cpu.total_busy_seconds == pytest.approx(2.0)
    assert cpu.busy_cores == 0


def test_cpu_interrupted_running_charge_frees_its_core_at_the_tick():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0, bucket_width=1.0)
    done = []

    def worker(label, work):
        yield from cpu.execute(work)
        done.append((label, env.now))

    running = env.process(worker("a", 2.0))
    env.process(worker("b", 1.0))
    _interrupt_at(env, running, 0.5)
    env.run()
    # b takes the core at the interrupt tick, not at a's would-be end.
    assert done == [("b", 1.5)]
    # a books no busy time: only b's [0.5, 1.5) is on the books.
    assert cpu.total_busy_seconds == pytest.approx(1.0)
    assert dict(cpu.utilization(0, 2)) == pytest.approx({0.0: 0.5, 1.0: 0.5})
    assert cpu.busy_cores == 0


def test_cpu_interrupt_after_grant_before_resume_passes_the_core_on():
    env = Environment()
    cpu = CpuModel(env, cores=1, speed=1.0)
    done = []

    def worker(label, work):
        yield from cpu.execute(work)
        done.append((label, env.now))

    env.process(worker("a", 1.0))
    granted = env.process(worker("b", 1.0))
    env.process(worker("c", 1.0))
    # a's finish at t=1 grants b; the interrupt lands on the same tick,
    # before b resumes, so the core must move on to c at once.
    _interrupt_at(env, granted, 1.0)
    env.run()
    assert done == [("a", 1.0), ("c", 2.0)]
    assert cpu.total_busy_seconds == pytest.approx(2.0)
    assert cpu.busy_cores == 0


def test_cpu_charge_on_an_idle_core_schedules_one_event():
    env = Environment()
    cpu = CpuModel(env, cores=2, speed=1.0)
    spent = []

    def worker():
        before = env._eid
        yield from cpu.execute(1.0)
        spent.append(env._eid - before)

    env.process(worker())
    env.run()
    assert spent == [1]  # the service timeout, and nothing else


def test_socket_delivery_schedules_only_the_readers_wake_up(world):
    server_host = world.host("server")
    client_host = world.host("client")
    server_proc = server_host.spawn("srv")
    client_proc = client_host.spawn("cli")
    endpoint = Endpoint(server_host.ip, 443)
    _, listener = server_host.kernel.tcp_listen(server_proc, endpoint)
    accepted, got = [], []

    def server():
        conn = yield listener.accept(server_proc)
        accepted.append(conn)
        message = yield conn.recv()
        got.append(message.payload)

    def client():
        yield client_host.kernel.tcp_connect(client_proc, endpoint)

    server_proc.run(server())
    client_proc.run(client())
    world.env.run(until=1)
    before = world.env._eid
    accepted[0].deliver(StreamMessage(payload="hello", size=10))
    assert world.env._eid - before == 1
    world.env.run(until=2)
    assert got == ["hello"]


def test_cpu_costs_defaults_sane():
    costs = CpuCosts()
    assert costs.tls_handshake > costs.tcp_handshake
    assert costs.cache_priming > costs.process_spawn
    assert costs.relay_message < costs.http_request


def test_process_exit_is_idempotent(world):
    host = world.host("h")
    proc = host.spawn("p")
    proc.exit("first")
    proc.exit("second")
    assert proc.exit_reason == "first"


def test_process_cannot_run_after_exit(world):
    host = world.host("h")
    proc = host.spawn("p")
    proc.exit()
    with pytest.raises(ProcessDeadError):
        proc.run(iter(()))


def test_process_exit_interrupts_tasks(world):
    host = world.host("h")
    proc = host.spawn("p")
    progress = []

    def forever():
        while True:
            yield world.env.timeout(1)
            progress.append(world.env.now)

    proc.run(forever())
    world.env.run(until=3.5)
    proc.exit("shutdown")
    world.env.run(until=10)
    assert progress == [1.0, 2.0, 3.0]


def test_process_memory_model(world):
    host = world.host("h")
    proc = host.spawn("p")
    proc.base_memory = 100.0
    proc.memory_per_connection = 2.0
    assert proc.memory_usage() == 100.0
    assert host.memory_usage() == 100.0
    proc.exit()
    assert host.memory_usage() == 0.0


def test_host_spawn_tracks_processes(world):
    host = world.host("h")
    a = host.spawn("a")
    b = host.spawn("b")
    assert set(host.live_processes()) == {a, b}
    a.exit()
    assert host.live_processes() == [b]


def test_host_reuseport_salts_differ(world):
    a = world.host("a")
    b = world.host("b")
    assert a.reuseport_salt != b.reuseport_salt
