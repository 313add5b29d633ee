"""Fluid/cohort client layer: million-user populations, selective fidelity.

The paper's results are fleet-scale, but one ``SimProcess`` per client
caps runs at thousands of users.  This package models homogeneous
client populations as weighted cohorts (Concury's "serve millions of
flows cheaply" framing), spending per-flow fidelity only where a
mechanism needs it — and it ships inside a differential harness
(``tests/cohorts``) proving cohort runs match individual-client runs
before any scale-up is claimed.  See DESIGN.md §cohorts for the
fidelity ladder.
"""

from .aggregate import CohortAggregate, expand, fold, modeled
from .drivers import CohortDriver, CohortSet
from .spec import COHORT_FIDELITIES, CohortPolicy, CohortSpec, compile_cohorts

__all__ = [
    "COHORT_FIDELITIES", "CohortAggregate", "CohortDriver", "CohortPolicy",
    "CohortSet", "CohortSpec", "compile_cohorts", "expand", "fold",
    "modeled",
]
