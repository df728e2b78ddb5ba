"""Key-DAG planner: group a sweep's trials by shared chain prefix.

The chain cache names every stage of a trial by a content-addressed key
(:func:`repro.chain.capture_chain_keys`), and two trials that agree on a
prefix of their key chains would compute byte-identical intermediates.
The planner exploits that *before* anything runs: it fingerprints every
trial's chain (paying only for the cheap digital half, once per distinct
digital prefix), folds the chains into a DAG of stage nodes, and marks
the shared fan-in points the executor computes once for many trials.

Only ``vrm`` / ``emission`` / ``capture`` nodes are counted as shared
("warm") groups: ``pmu`` and the absent-dither case have exactly one
child by construction (their key is a pure hash of the parent's); a
``dither`` node likewise feeds exactly one emission.  A node counts
only when it actually fans out (``len(children) > 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..chain import ChainKeys, capture_chain_keys
from ..exec.cache import get_chain_cache
from ..obs.trace import key_prefix, span
from .spec import (
    SweepSpec,
    TrialSpec,
    build_link,
    digital_prefix_id,
    trial_id,
    trial_payload,
)

#: Chain order of stage nodes; ``capture`` covers propagation + sdr.
STAGE_ORDER = ("pmu", "vrm", "dither", "emission", "capture")

#: Stages whose shared nodes count as warm groups (see module docstring).
WARMABLE = ("vrm", "emission", "capture")


@dataclass(frozen=True)
class TrialPlan:
    """One trial with its identities and chain keys resolved."""

    trial: TrialSpec
    trial_id: str
    digital_id: str
    keys: ChainKeys


@dataclass(frozen=True)
class StageNode:
    """One node of the sweep's key DAG.

    ``children`` are the next-stage keys reached from this node - or,
    for the deepest stage, the ids of the trials that consume it.
    """

    stage: str
    key: str
    trial_ids: Tuple[str, ...]
    children: Tuple[str, ...]

    @property
    def shared(self) -> bool:
        return len(self.children) > 1


@dataclass
class SweepPlan:
    """The inspectable output of :func:`plan_sweep`."""

    name: str
    trials: List[TrialPlan]
    nodes: List[StageNode]

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def naive_stage_runs(self) -> int:
        """Stage executions a trial-at-a-time cold run would pay."""
        return sum(len(tp.keys.stages()) for tp in self.trials)

    @property
    def planned_stage_runs(self) -> int:
        """Distinct stage nodes - what a cold engine run pays."""
        return len(self.nodes)

    @property
    def stages_saved(self) -> int:
        return self.naive_stage_runs - self.planned_stage_runs

    @property
    def sharing_factor(self) -> float:
        """Naive-to-planned stage-run ratio (1.0 = nothing shared)."""
        if self.planned_stage_runs == 0:
            return 1.0
        return self.naive_stage_runs / self.planned_stage_runs

    def warm_nodes(
        self, pending: Optional[Sequence[TrialPlan]] = None
    ) -> List[StageNode]:
        """The shared ``vrm``/``emission``/``capture`` nodes, in chain
        order; with ``pending``, only those a pending trial consumes."""
        nodes = [n for n in self.nodes if n.stage in WARMABLE and n.shared]
        if pending is None:
            return nodes
        ids = {tp.trial_id for tp in pending}
        return [n for n in nodes if any(t in ids for t in n.trial_ids)]

    def trial_groups(self) -> List[Tuple[StageNode, List[TrialPlan]]]:
        """Trials grouped by the deepest chain node they share, in node
        order.  Unlike the warm/fan-out accounting (which only cares
        about nodes with more than one consumer), every group is
        reported - a grid that expands to a single trial is one
        singleton group, not nothing."""
        by_key: Dict[Tuple[str, str], List[TrialPlan]] = {}
        for tp in self.trials:
            by_key.setdefault(tp.keys.stages()[-1], []).append(tp)
        groups: List[Tuple[StageNode, List[TrialPlan]]] = []
        for node in self.nodes:
            members = by_key.get((node.stage, node.key))
            if members is not None:
                groups.append((node, members))
        return groups

    def predicted_hits(self) -> Dict[str, int]:
        """How many nodes the *current* cache already holds, per layer."""
        cache = get_chain_cache()
        hits: Dict[str, int] = {"memory": 0, "disk": 0}
        if cache is None:
            return hits
        for node in self.nodes:
            layer = cache.probe(node.key)
            if layer is not None:
                hits[layer] += 1
        return hits

    def describe(self) -> str:
        """Human-readable plan summary for ``repro sweep --plan``."""
        lines = [
            f"sweep {self.name!r}: {self.n_trials} trials, "
            f"{self.naive_stage_runs} naive stage runs -> "
            f"{self.planned_stage_runs} planned "
            f"({self.sharing_factor:.2f}x sharing, "
            f"{self.stages_saved} saved)"
        ]
        hits = self.predicted_hits()
        if any(hits.values()):
            lines.append(
                f"  cache already holds {hits['memory']} node(s) in memory, "
                f"{hits['disk']} on disk"
            )
        for node in self.nodes:
            marks = []
            if node.shared and node.stage in WARMABLE:
                marks.append("warm")
            mark = f"  [{', '.join(marks)}]" if marks else ""
            lines.append(
                f"  {node.stage:<10} {key_prefix(node.key)}  "
                f"trials={len(node.trial_ids)} fan-out={len(node.children)}"
                f"{mark}"
            )
        for node, members in self.trial_groups():
            labels = ", ".join(
                tp.trial.label or tp.trial_id[:12] for tp in members
            )
            lines.append(
                f"  group {node.stage} {key_prefix(node.key)}: "
                f"{len(members)} trial(s): {labels}"
            )
        return "\n".join(lines)


def plan_sweep(
    spec: Union[SweepSpec, Sequence[TrialSpec]],
    name: Optional[str] = None,
) -> SweepPlan:
    """Fingerprint every trial's key chain and fold them into a DAG.

    Nothing from the analog chain runs here: per distinct digital
    prefix, the trial's cheap digital half is prepared once
    (:meth:`~repro.covert.link.CovertLink.prepare`) to obtain the
    activity trace and chain-entry RNG state, from which every stage key
    follows by hashing alone.
    """
    if isinstance(spec, SweepSpec):
        trials = spec.trials()
        name = name if name is not None else spec.name
    else:
        trials = list(spec)
        name = name if name is not None else "sweep"
    info: Dict[str, object] = {}
    with span("sweep.plan", {"sweep": name}, lazy=lambda: dict(info)):
        prepared: Dict[str, dict] = {}
        plans: List[TrialPlan] = []
        seen: Dict[str, TrialSpec] = {}
        for trial in trials:
            tid = trial_id(trial)
            if tid in seen:
                raise ValueError(
                    f"sweep {name!r} expands to duplicate trials "
                    f"({trial} vs {seen[tid]}); labels do not "
                    f"distinguish trials - their physics must differ"
                )
            seen[tid] = trial
            link = build_link(trial)
            did = digital_prefix_id(trial)
            if did not in prepared:
                prep = link.prepare(trial_payload(trial))
                prepared[did] = {
                    "activity": prep.activity,
                    "rng_state": prep.rng.bit_generator.state,
                }
            digital = prepared[did]
            rng = np.random.default_rng(0)
            rng.bit_generator.state = digital["rng_state"]
            keys = capture_chain_keys(
                link.machine,
                digital["activity"],
                link.scenario,
                link.profile,
                rng,
                allow_c_states=link.allow_c_states,
                allow_p_states=link.allow_p_states,
                vrm_dithering=link.vrm_dithering,
            )
            plans.append(TrialPlan(trial, tid, did, keys))
        nodes = _build_nodes(plans)
        plan = SweepPlan(name=name, trials=plans, nodes=nodes)
        info.update(
            trials=plan.n_trials,
            nodes=plan.planned_stage_runs,
            naive_stage_runs=plan.naive_stage_runs,
            stages_saved=plan.stages_saved,
            sharing_factor=round(plan.sharing_factor, 3),
        )
    return plan


def _build_nodes(plans: Iterable[TrialPlan]) -> List[StageNode]:
    """Fold trial key chains into unique stage nodes with fan-out."""
    table: "Dict[Tuple[str, str], dict]" = {}
    for tp in plans:
        stages = tp.keys.stages()
        for i, (stage_name, key) in enumerate(stages):
            entry = table.setdefault(
                (stage_name, key), {"trials": [], "children": {}}
            )
            entry["trials"].append(tp.trial_id)
            # Leaf nodes fan out into the trials that consume them.
            child = stages[i + 1][1] if i + 1 < len(stages) else tp.trial_id
            entry["children"][child] = None  # ordered set
    ordered = sorted(
        table.items(), key=lambda item: STAGE_ORDER.index(item[0][0])
    )
    return [
        StageNode(
            stage=stage_name,
            key=key,
            trial_ids=tuple(entry["trials"]),
            children=tuple(entry["children"]),
        )
        for (stage_name, key), entry in ordered
    ]
