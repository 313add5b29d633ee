"""Small helpers for writing simulation processes."""

from __future__ import annotations

from typing import Any, Optional

from ..simkernel.core import Environment
from ..simkernel.events import PENDING, Event

__all__ = ["with_timeout", "TimeoutResult", "TIMED_OUT", "is_timeout"]


class TimeoutResult:
    """Sentinel returned by :func:`with_timeout` when the deadline won."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<timed out>"


TIMED_OUT = TimeoutResult()


def with_timeout(env: Environment, event: Event, timeout: float):
    """Wait for ``event`` or ``timeout`` seconds, whichever first.

    Usage::

        outcome = yield from with_timeout(env, conn.recv(), 5.0)
        if outcome is TIMED_OUT: ...

    Returns the event's value, or the :data:`TIMED_OUT` sentinel.  If the
    event fails, its exception propagates to the caller.  An event that
    already succeeded when the deadline wins (both on the same tick)
    still returns its value: a store item the get has taken is never
    dropped.

    The race is one ``settle`` callback on each side and a bare wake-up
    event, so the caller resumes one hop after the winner is processed.
    """
    deadline = env.timeout(timeout, value=TIMED_OUT)
    wake = env.event()

    def settle(winner) -> None:
        if wake._value is not PENDING:
            # The race is over; absorb a late loser's failure so the
            # kernel does not treat it as unhandled.
            if not winner._ok:
                winner._defused = True
            return
        if winner._ok:
            wake.succeed(winner)
        else:
            winner._defused = True
            wake.fail(winner._value)

    if event.callbacks is None:
        settle(event)
    else:
        event.callbacks.append(settle)
    deadline.callbacks.append(settle)
    if (yield wake) is event:
        # The event won: withdraw the losing deadline so the race does
        # not leave a dead timeout behind in the heap (a relay loop
        # calls this millions of times — leaked deadlines would come to
        # dominate the schedule).  ``Timeout.cancel`` only tombstones a
        # timeout nobody waits on, so detach ``settle`` first.
        callbacks = deadline.callbacks
        if callbacks is not None:
            callbacks.remove(settle)
            cancel = getattr(deadline, "cancel", None)
            if cancel is not None:
                cancel()
        return event._value
    if event._ok and event._value is not PENDING and not hasattr(
            event, "delay"):
        # Succeeded on the deadline's tick but not yet processed.  (A
        # timeout, in either kernel, holds its value from creation, so
        # it only counts once processed.)
        return event._value
    # Cancel the pending get if the event supports it, so an unread
    # queue item is not consumed later by a stale getter.
    cancel = getattr(event, "cancel", None)
    if cancel is not None:
        cancel()
    return TIMED_OUT


def is_timeout(value: Any) -> bool:
    """True if ``value`` is the :func:`with_timeout` sentinel."""
    return isinstance(value, TimeoutResult)
