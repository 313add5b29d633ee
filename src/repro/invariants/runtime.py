"""Always-on invariant checking for harness-built deployments.

The experiment harnesses (and the integration tests that reuse them)
call :func:`install` right after constructing a deployment; at the end
of the run :func:`drain` finalizes every installed suite and hands back
whatever violations accumulated.  This is how the tier-1 test suite
doubles as an invariant test suite: any scenario a test drives through
``build_deployment`` is silently also a fuzz oracle run.
"""

from __future__ import annotations

from typing import Optional

from .base import InvariantSuite, InvariantViolation

__all__ = ["install", "adopt", "drain", "active_suites"]


class FinishedSuite:
    """The verdict of a suite that ran and finalized elsewhere (a forked
    shard worker, see :mod:`repro.shard`); drained like a local suite."""

    def __init__(self, violations: list[InvariantViolation]):
        self.violations = violations

    def finalize(self) -> list[InvariantViolation]:
        return self.violations


_suites: list = []


def install(deployment, checkers: Optional[list] = None) -> InvariantSuite:
    """Attach a fresh suite to ``deployment`` and register it for drain."""
    suite = InvariantSuite(deployment, checkers=checkers)
    suite.attach()
    _suites.append(suite)
    return suite


def adopt(violations: list[InvariantViolation]) -> None:
    """Register a finished suite's ``violations`` for :func:`drain`."""
    _suites.append(FinishedSuite(violations))


def active_suites() -> list:
    return list(_suites)


def drain() -> list[InvariantViolation]:
    """Finalize every registered suite; clear the registry."""
    violations: list[InvariantViolation] = []
    while _suites:
        suite = _suites.pop()
        violations.extend(suite.finalize())
    violations.sort(key=lambda v: (v.at, v.checker))
    return violations
