"""Execution subsystem: trial fan-out, chain caching, executor choice.

Four cooperating modules, shared by every harness that runs independent
seed-controlled trials over the analog chain:

* :mod:`repro.exec.context` - the process-wide :class:`ExecutionConfig`
  (worker count, cache settings).  The CLI writes it; harnesses read it.
* :mod:`repro.exec.pool` - :func:`parallel_map`, the single fan-out
  primitive.  Process-based at ``jobs > 1`` with a deterministic serial
  fallback at ``jobs = 1``; output order always matches input order.
* :mod:`repro.exec.cache` - a content-addressed cache for expensive
  chain intermediates (power-state trace, burst train, emission
  waveform), keyed by a stable hash of everything that determines them,
  including the RNG state on entry.
* :mod:`repro.exec.executor` - :func:`choose_executor` picks serial /
  batched-serial / processes from the job shape (task count, CPU
  budget) so callers state *what* to fan out, not *how*.

Where a run's time goes is recorded by :mod:`repro.obs.trace` spans;
:func:`parallel_map` carries each worker's span times back to the
parent's collector.
"""

from .cache import ChainCache, fingerprint, get_chain_cache, reset_chain_cache
from .context import (
    ExecutionConfig,
    execution_scope,
    get_execution_config,
    set_execution_config,
)
from .executor import ExecutorDecision, choose_executor, effective_cpus
from .pool import parallel_map

__all__ = [
    "ChainCache",
    "ExecutionConfig",
    "ExecutorDecision",
    "choose_executor",
    "effective_cpus",
    "execution_scope",
    "fingerprint",
    "get_chain_cache",
    "get_execution_config",
    "parallel_map",
    "reset_chain_cache",
    "set_execution_config",
]
