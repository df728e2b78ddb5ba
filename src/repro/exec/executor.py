"""Adaptive executor selection: serial / batched-serial / processes.

``parallel_map`` fans homogeneous trials over a process pool - the right
call on a many-core box with small task payloads, and exactly the wrong
one on a single CPU, where fork + pickle overhead is pure loss
(``BENCH_parallel.json``: the table2 harness ran 24% *slower* at
``--jobs 4`` than serially on a 1-CPU host).  This module centralises
that judgement: :func:`choose_executor` looks at the job shape (task
count, whether a trial-major batched kernel exists) and the host
(:func:`effective_cpus`) and returns an explicit
:class:`ExecutorDecision` instead of blindly honouring ``--jobs``.

The decision table (DESIGN.md §14):

===========================  ============================================
condition                    decision
===========================  ============================================
``tasks <= 1``               serial (batched-serial when a kernel exists)
``jobs <= 1``                serial / batched-serial - the reference path
``cpus <= 1``                batched-serial: fork cannot be hidden
otherwise                    processes via :func:`parallel_map`
===========================  ============================================

Every decision is traced (``batch.executor`` event) so a sweep's
manifest can say *why* it ran the way it did.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..obs.trace import trace_event
from .context import get_execution_config


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware).

    Overridable in tests (monkeypatch this name) so the fork paths stay
    exercised on single-CPU CI hosts.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ExecutorDecision:
    """One resolved scheduling decision.

    Attributes
    ----------
    mode:
        ``"batched-serial"`` / ``"serial"`` / ``"processes"``.
    jobs:
        Worker count the chosen mode should use (1 for serial modes).
    reason:
        Human-readable justification, recorded in traces and manifests.
    tasks / cpus:
        The inputs the decision was made from.
    """

    mode: str
    jobs: int
    reason: str
    tasks: int
    cpus: int

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "reason": self.reason,
            "tasks": self.tasks,
            "cpus": self.cpus,
        }


def choose_executor(
    tasks: int,
    *,
    jobs: Optional[int] = None,
    batchable: bool = False,
) -> ExecutorDecision:
    """Pick an execution mode from the job shape and the host.

    Parameters
    ----------
    tasks:
        Number of independent tasks to run.
    jobs:
        Requested worker count; ``None`` reads the active
        :class:`~repro.exec.context.ExecutionConfig`.
    batchable:
        True when a trial-major batched kernel exists for this work, so
        the serial modes report ``batched-serial`` rather than plain
        ``serial``.
    """
    if jobs is None:
        jobs = get_execution_config().jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cpus = effective_cpus()
    serial_mode = "batched-serial" if batchable else "serial"

    def decide(mode: str, n_jobs: int, reason: str) -> ExecutorDecision:
        decision = ExecutorDecision(
            mode=mode, jobs=n_jobs, reason=reason, tasks=tasks, cpus=cpus
        )
        trace_event("batch.executor", **decision.as_dict())
        return decision

    if tasks <= 1:
        return decide(serial_mode, 1, "nothing to fan out")
    if jobs <= 1:
        return decide(serial_mode, 1, "serial requested (jobs=1)")
    if cpus <= 1:
        return decide(
            serial_mode, 1, "single CPU: fork+pickle overhead cannot be hidden"
        )
    return decide(
        "processes",
        min(jobs, cpus, tasks),
        "multiple CPUs and picklable tasks",
    )
