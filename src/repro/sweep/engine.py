"""Cache-topology-aware sweep executor.

Execution (DESIGN.md §12): every pending trial runs through one lane,
the trial-major batched runner (:func:`repro.batch.runner.
run_trials_batched`), which computes each distinct stage node of the
plan's key DAG exactly once.  It runs in-process, or - when the
adaptive executor picks processes - over shards of the pending trials
split by power root.  Every lower key hashes its parent, so two roots
never share a node and the shards never duplicate work.

Correctness bar: a trial's record is bit-identical whether it runs here
(any jobs count, cold or warm cache, resumed or not) or via a plain
``link.run(payload)``.  That falls out of the chain cache's RNG
entry/exit-state discipline - the engine adds scheduling, not new
physics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.align import ChannelMetrics
from ..dsp.detection import histogram_modes
from ..exec.context import execution_scope, get_execution_config
from ..exec.executor import choose_executor
from ..exec.pool import parallel_map, resolve_jobs
from ..obs.metrics import tap_sweep
from ..obs.trace import key_prefix, rng_digest, span, trace_event
from .plan import SweepPlan, TrialPlan, plan_sweep
from .spec import SweepSpec, TrialSpec, build_link, trial_payload
from .store import STORE_SCHEMA, ResultStore


@dataclass
class SweepOutcome:
    """Everything one :func:`run_sweep` call produced."""

    plan: SweepPlan
    records: List[dict]  # plan order; resumed records included
    executed: int
    resumed: int
    naive: bool
    elapsed_s: float
    stats: Dict[str, float] = field(default_factory=dict)

    def record_for(self, trial_id: str) -> Optional[dict]:
        for record in self.records:
            if record["trial_id"] == trial_id:
                return record
        return None


def pooled_metrics(records: List[dict]) -> ChannelMetrics:
    """Pool per-trial alignment counts (integer sums - exact)."""
    pooled = ChannelMetrics(0, 0, 0, 0, 0)
    for record in records:
        r = record["result"]
        pooled = pooled.combined(
            ChannelMetrics(
                bit_errors=r["bit_errors"],
                insertions=r["insertions"],
                deletions=r["deletions"],
                transmitted=r["transmitted"],
                received=r["received"],
            )
        )
    return pooled


def _bits_digest(bits: np.ndarray) -> str:
    data = np.ascontiguousarray(np.asarray(bits), dtype=np.uint8)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _execute_trial(tp: TrialPlan) -> dict:
    """One full naive trial; module-level so it crosses the process
    boundary."""
    trial = tp.trial
    link = build_link(trial)
    started = time.perf_counter()
    prepared = link.prepare(trial_payload(trial))
    with span(
        "sweep.trial",
        {"trial": key_prefix(tp.trial_id), "label": trial.label},
    ):
        result = link.run_prepared(prepared)
    decode = result.decode
    m = result.metrics
    threshold = (
        float(decode.thresholds[0]) if decode.thresholds else float("nan")
    )
    lo_mode = hi_mode = float("nan")
    if decode.powers.size:
        _, _, modes = histogram_modes(decode.powers)
        lo_mode = float(min(modes[:2])) if modes.size >= 2 else float(modes[0])
        hi_mode = float(max(modes[:2])) if modes.size >= 2 else float(modes[0])
    return {
        "schema": STORE_SCHEMA,
        "trial_id": tp.trial_id,
        "label": trial.label,
        "trial": dataclasses.asdict(trial),
        "keys": {stage: key_prefix(key) for stage, key in tp.keys.stages()},
        "result": {
            "bit_errors": int(m.bit_errors),
            "insertions": int(m.insertions),
            "deletions": int(m.deletions),
            "transmitted": int(m.transmitted),
            "received": int(m.received),
            "ber": float(m.ber),
            "ip": float(m.insertion_probability),
            "dp": float(m.deletion_probability),
            "tr_bps": float(result.transmission_rate_bps),
            "duration_s": float(result.duration_s),
            "n_bits": int(decode.bits.size),
            "bits_sha": _bits_digest(decode.bits),
            "tx_sha": _bits_digest(result.tx_bits),
            "rng": rng_digest(prepared.rng),
            "threshold": threshold,
            "power_modes": [lo_mode, hi_mode],
        },
        "elapsed_s": round(time.perf_counter() - started, 6),
    }


def _shards(
    pending: List[TrialPlan], jobs: Optional[int]
) -> List[List[TrialPlan]]:
    """The pending trials as one in-process batch, or - when the
    executor picks processes - one shard per power root."""
    decision = choose_executor(
        len(pending), jobs=resolve_jobs(jobs), batchable=True
    )
    if decision.mode != "processes":
        return [pending]
    roots: Dict[str, List[TrialPlan]] = {}
    for tp in pending:
        roots.setdefault(tp.keys.power, []).append(tp)
    return list(roots.values())


def run_sweep(
    spec: Union[SweepSpec, List[TrialSpec]],
    *,
    plan: Optional[SweepPlan] = None,
    results_path: Optional[os.PathLike] = None,
    resume: bool = True,
    naive: bool = False,
    jobs: Optional[int] = None,
) -> SweepOutcome:
    """Plan and execute a sweep.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` (or explicit trial list); ignored when a
        pre-computed ``plan`` is supplied.
    results_path:
        Optional JSONL store.  With ``resume`` (the default), trials
        whose intact records are already on disk are skipped entirely -
        they never reach the runner, and their stage nodes are not
        computed unless a pending trial still needs them.
    naive:
        Run every trial independently with the chain cache disabled -
        the reference path the engine must match bit-for-bit (and the
        baseline the speedup benchmarks compare against).
    jobs:
        Worker count; ``None`` reads the active execution config.
    """
    started = time.perf_counter()
    if plan is None:
        plan = plan_sweep(spec)
    store = ResultStore(results_path)
    existing = store.load() if resume else {}
    resumed = {
        tp.trial_id: existing[tp.trial_id]
        for tp in plan.trials
        if tp.trial_id in existing
    }
    pending = [tp for tp in plan.trials if tp.trial_id not in resumed]
    warm_groups = 0
    shards: List[List[TrialPlan]] = []
    if naive:
        # Reference semantics: every trial owns its full chain.
        with execution_scope(cache_enabled=False):
            new_records = parallel_map(_execute_trial, pending, jobs=jobs)
    elif pending:
        # Lazy import: repro.batch pulls in this package's siblings.
        from ..batch.runner import run_trials_batched

        if get_execution_config().cache_enabled:
            warm_groups = len(plan.warm_nodes(pending))
        shards = _shards(pending, jobs)
        parts = parallel_map(run_trials_batched, shards, jobs=jobs)
        by_id = {r["trial_id"]: r for part in parts for r in part}
        new_records = [by_id[tp.trial_id] for tp in pending]
    else:
        new_records = []
    for record in new_records:
        store.append(record)
    elapsed = time.perf_counter() - started
    records = [
        resumed.get(tp.trial_id) or store.get(tp.trial_id)
        for tp in plan.trials
    ]
    stats = {
        "trials": float(plan.n_trials),
        "executed": float(len(pending)),
        "resumed": float(len(resumed)),
        "naive_stage_runs": float(plan.naive_stage_runs),
        "planned_stage_runs": float(plan.planned_stage_runs),
        "stages_saved": float(plan.stages_saved),
        "sharing_factor": plan.sharing_factor,
        "warm_groups": float(warm_groups),
        "shards": float(len(shards)),
        "elapsed_s": elapsed,
    }
    tap_sweep(stats)
    trace_event(
        "sweep.done",
        sweep=plan.name,
        naive=bool(naive),
        **{k: round(v, 4) for k, v in stats.items()},
    )
    return SweepOutcome(
        plan=plan,
        records=records,
        executed=len(pending),
        resumed=len(resumed),
        naive=bool(naive),
        elapsed_s=elapsed,
        stats=stats,
    )
