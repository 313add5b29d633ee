"""``with_timeout`` when the awaited item and the deadline share a tick.

A store item delivered at the same simulated instant as the deadline is
handed to the pending get before the waiter resumes.  The waiter must
receive it: answering ``TIMED_OUT`` there would drop a message the
store no longer holds.  The race goes both ways depending on which
process scheduled its wake-up first, so both orders are pinned.
"""

import pytest

from repro.netsim import TIMED_OUT, with_timeout
from repro.simkernel import Environment, Store
from repro.simkernel.reference import Environment as ReferenceEnvironment

KERNELS = [Environment, ReferenceEnvironment]


def _same_tick_delivery(env_cls, producer_first: bool):
    env = env_cls()
    store = env.make_store()
    outcome = []

    def producer():
        yield env.timeout(1.0)
        store.put_nowait("msg")

    def consumer():
        outcome.append((yield from with_timeout(env, store.get(), 1.0)))

    procs = [producer, consumer] if producer_first else [consumer, producer]
    for proc in procs:
        env.process(proc())
    env.run()
    return outcome, store.items


@pytest.mark.parametrize("env_cls", KERNELS)
@pytest.mark.parametrize("producer_first", [True, False])
def test_item_on_the_deadline_tick_is_delivered(env_cls, producer_first):
    outcome, leftover = _same_tick_delivery(env_cls, producer_first)
    assert outcome == ["msg"]
    assert leftover == []


@pytest.mark.parametrize("env_cls", KERNELS)
def test_item_after_the_deadline_stays_in_the_store(env_cls):
    env = env_cls()
    store = env.make_store()
    outcome = []

    def consumer():
        outcome.append((yield from with_timeout(env, store.get(), 1.0)))

    def producer():
        yield env.timeout(1.5)
        store.put_nowait("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert outcome == [TIMED_OUT]
    assert store.items == ["late"]


@pytest.mark.parametrize("env_cls", KERNELS)
def test_later_timeout_loses_to_the_deadline(env_cls):
    """A timeout holds its value from creation; it must not count as
    already succeeded when the deadline wins."""
    env = env_cls()
    outcome = []

    def waiter():
        outcome.append((yield from with_timeout(
            env, env.timeout(2.0, "slow"), 1.0)))
        outcome.append(env.now)

    env.process(waiter())
    env.run()
    assert outcome == [TIMED_OUT, 1.0]


def test_failing_event_propagates_and_late_failure_is_absorbed():
    env = Environment()
    seen = []

    def fails_at(delay):
        yield env.timeout(delay)
        raise RuntimeError(f"boom@{delay}")

    def waiter():
        try:
            yield from with_timeout(env, env.process(fails_at(1.0)), 5.0)
        except RuntimeError as exc:
            seen.append(str(exc))
        # A loser failing after the deadline won must not crash the run.
        out = yield from with_timeout(env, env.process(fails_at(3.0)), 1.0)
        seen.append(out)

    env.process(waiter())
    env.run()
    assert seen == ["boom@1.0", TIMED_OUT]
