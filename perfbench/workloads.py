"""The four benchmark workloads: inputs from a seed, one timed run, checks.

Each workload follows the same protocol, driven by ``run.py``:

``warm_up()``
    untimed; finishes lazy imports and first-call set-up so the first
    timed run is not an outlier (the lint workload's warm-up is also its
    reference run);
``setup()``
    builds the run's inputs from a cleared chain cache and is timed as
    ``setup_s`` - ``SETUP_REPEATS`` times before the runs, or before
    every run when that is 0 (the fleet consumes its multiplexer);
``before_run()`` / ``run(tracer)`` / ``after_run(run)``
    untimed reset, the timed run returning a :class:`Run`, and untimed
    bookkeeping on it;
``reference(refs)`` / ``check(run)``
    after the timed window: compute (or load) the reference outputs for
    this seed and count the failed operations of one run.
"""

from __future__ import annotations

import contextlib
import shutil
import tarfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.exec.cache import get_chain_cache, reset_chain_cache
from repro.exec.context import execution_scope
from repro.exec.executor import choose_executor
from repro.sweep import plan_sweep, receiver_grid, run_sweep

HERE = Path(__file__).resolve().parent

#: ``git archive --format=tar.gz 534eef5 src/repro pyproject.toml``.
LINT_SNAPSHOT = HERE / "data" / "lint-snapshot-534eef5.tar.gz"


@dataclass
class Run:
    """What one timed run produced."""

    items: int  # trials, delivered chunks or linted modules
    input_bytes: int  # IQ bytes decoded, or source bytes linted
    outputs: object  # compared against the reference by ``check``
    ticks: List[float] = field(default_factory=list)  # fleet tick walls
    extra: Dict[str, float] = field(default_factory=dict)  # ledger values


@contextlib.contextmanager
def recording(module, attr: str, sink: list):
    """Append every return value of ``module.attr`` to ``sink``."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(module, attr, original)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _warm_chain() -> None:
    """One quick receiver-grid trial through the batched chain."""
    reset_chain_cache()
    run_sweep(receiver_grid(seed=0, quick=True).trials()[:1])
    reset_chain_cache()


def _trial_refs(records: List[dict]) -> Dict[str, dict]:
    return {
        r["trial_id"]: {k: r["result"][k] for k in ("bits_sha", "tx_sha", "rng")}
        for r in records
    }


def _failed_trials(records: List[dict], ref: Dict[str, dict]) -> int:
    got = _trial_refs(records)
    if len(records) != len(ref) or set(got) != set(ref):
        return len(ref)
    return sum(got[t] != ref[t] for t in ref)


def _capture_bytes(trial_plans) -> int:
    """IQ bytes of every trial's capture, read back from the chain cache."""
    cache = get_chain_cache()
    total = 0
    for tp in trial_plans:
        hit = cache.get(tp.keys.capture)  # (capture, rng exit state)
        if hit is None:
            raise RuntimeError(f"capture of trial {tp.trial_id[:12]} not cached")
        total += int(hit[0].samples.nbytes)
    return total


class Workload:
    """Defaults for the protocol steps a workload does not need."""

    name = ""
    SETUP_REPEATS = 5

    def executor(self) -> Optional[dict]:
        return None

    def before_run(self) -> None:
        pass

    def after_run(self, run: Run) -> None:
        pass

    def reference(self, refs) -> None:
        pass


class SweepWorkload(Workload):
    """Shared by the two sweep workloads: trials checked against the
    naive path, captures read back for the byte count."""

    n_trials = 0
    _input_bytes: Optional[int] = None

    def executor(self) -> dict:
        return choose_executor(self.n_trials, jobs=1, batchable=True).as_dict()

    def warm_up(self) -> None:
        _warm_chain()

    def before_run(self) -> None:
        reset_chain_cache()

    def after_run(self, run: Run) -> None:
        # Capture sizes depend only on the seed: read them once.
        if self._input_bytes is None:
            self._input_bytes = self.capture_bytes()
        run.input_bytes = self._input_bytes or 0

    def check(self, run: Optional[Run]) -> "tuple[int, int]":
        if run is None:
            return self.n_trials, self.n_trials
        return self.n_trials, _failed_trials(run.outputs, self.ref)


class Table2Cold(SweepWorkload):
    """``repro run table2``: 12 trials, each with its own analog chain."""

    name = "table2-cold"
    n_trials = 12

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.plan = None

    def spec(self):
        from repro.experiments.table2_near_field import sweep_spec
        from repro.params import TINY

        return sweep_spec(TINY, True, self.seed)

    def warm_up(self) -> None:
        # A whole untimed run: the first one in a process also pays
        # ~1 s of page faults for its ~1 GB working set.
        self.setup()
        self.before_run()
        self.run(None)

    def setup(self) -> None:
        reset_chain_cache()
        self.plan = plan_sweep(self.spec())

    def capture_bytes(self) -> int:
        return _capture_bytes(self.plan.trials)

    def run(self, tracer) -> Run:
        import repro.scenario.ports.sweeps as port
        from repro.experiments.runner import run_experiments

        outcomes: list = []
        with recording(port, "run_sweep", outcomes), _span(
            tracer, "experiments.run"
        ):
            run_experiments(
                ["table2"], quick=True, seed=self.seed,
                echo=lambda *a, **k: None, jobs=1,
            )
        records = [r for o in outcomes for r in o.records]
        return Run(len(records), 0, records)

    def reference(self, refs) -> None:
        self.ref = refs.get(
            f"table2-quick-s{self.seed}",
            lambda: _trial_refs(run_sweep(self.spec(), naive=True).records),
        )


class ReceiverWarm(SweepWorkload):
    """6 seeds x the 8 receiver-grid configs at full payload, captures
    served by a disk chain cache filled during set-up."""

    name = "receiver-warm"
    SETUP_REPEATS = 3
    SEEDS = 6
    n_trials = 8 * SEEDS

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.cache_dir: Optional[Path] = None
        self.fills = 0

    def trials(self, seed: Optional[int] = None):
        seeds = (
            range(self.seed, self.seed + self.SEEDS) if seed is None else [seed]
        )
        return [t for s in seeds for t in receiver_grid(s, quick=False).trials()]

    def setup(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
        self.fills += 1
        self.cache_dir = self.work / f"chain-cache-{self.fills}"
        reset_chain_cache()
        with execution_scope(cache_dir=str(self.cache_dir)):
            run_sweep(self.trials())
        reset_chain_cache()

    def run(self, tracer) -> Run:
        with execution_scope(cache_dir=str(self.cache_dir)):
            outcome = run_sweep(self.trials())
        self.plan = outcome.plan
        return Run(len(outcome.records), 0, outcome.records)

    def capture_bytes(self) -> int:
        with execution_scope(cache_dir=str(self.cache_dir)):
            return _capture_bytes(self.plan.trials)

    def reference(self, refs) -> None:
        # Cached per trial seed, so overlapping seed windows share work.
        self.ref = {}
        for s in range(self.seed, self.seed + self.SEEDS):
            self.ref.update(
                refs.get(
                    f"receiver-grid-full-s{s}",
                    lambda s=s: _trial_refs(
                        run_sweep(self.trials(s), naive=True).records
                    ),
                )
            )


class FleetMixed(Workload):
    """256 streams: covert, keylog and a 2x real-time clockmod-fsk slice."""

    name = "fleet-mixed"
    SETUP_REPEATS = 0  # every run consumes a freshly built multiplexer
    CHUNK = 512

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.mux = None
        self.by_stream: Dict[str, object] = {}
        self.golden: Dict[tuple, str] = {}

    def fleet(self, scale: int = 1):
        from repro.mux import FleetStreamSpec

        s = self.seed
        return [
            FleetStreamSpec("stream-covert", count=128 // scale, seed=s),
            FleetStreamSpec("keylog", count=64 // scale, seed=s),
            FleetStreamSpec(
                "clockmod-fsk", count=64 // scale, seed=s,
                service_rate_factor=2.0,
            ),
        ]

    def _build(self, fleet):
        from repro.mux import build_multiplexer

        reset_chain_cache()
        return build_multiplexer(
            fleet, chunk_size=self.CHUNK, tick_chunks=2,
            jitter_seed=1000 * (self.seed + 1),
        )

    def warm_up(self) -> None:
        from repro.mux import finalized_digests

        mux, by_stream = self._build(self.fleet(scale=32))
        mux.run()
        finalized_digests(mux, by_stream)

    def setup(self) -> None:
        self.mux = None
        self.mux, self.by_stream = self._build(self.fleet())

    def run(self, tracer) -> Run:
        import time

        from repro.mux import finalized_digests

        mux, ticks = self.mux, []
        while not mux.done:
            started = time.perf_counter()
            mux.tick()
            ticks.append(time.perf_counter() - started)
        digests = finalized_digests(mux, self.by_stream)
        self.mux = None
        return self._result(mux, digests, ticks)

    def _result(self, mux, digests, ticks) -> Run:
        try:
            mux.check_conservation()
            conserved = True
        except AssertionError:
            conserved = False
        lossy = {
            sid for sid in digests
            if mux.state(sid).counters.dropped_chunks
            or mux.state(sid).counters.shed_chunks
        }
        totals = mux.totals()
        extra = {
            "mux.pool.high_watermark": mux.pool.high_watermark,
            "mux.ledger.delivered_samples": totals["delivered_samples"],
            "mux.ledger.dropped_chunks": totals["dropped_chunks"],
            "mux.ledger.shed_chunks": totals["shed_chunks"],
        }
        return Run(
            totals["delivered_chunks"],
            totals["delivered_samples"] * 8,  # complex64
            {"digests": digests, "conserved": conserved, "lossy": lossy},
            ticks,
            extra,
        )

    def reference(self, refs) -> None:
        from repro.mux.fleet import golden_digest

        for spec in self.by_stream.values():
            key = (spec.scenario, spec.seed)
            if key not in self.golden:
                self.golden[key] = golden_digest(spec, self.CHUNK)

    def check(self, run: Optional[Run]) -> "tuple[int, int]":
        n = len(self.by_stream)
        if run is None or not run.outputs["conserved"]:
            return n, n
        failed = sum(
            1
            for sid, spec in self.by_stream.items()
            if sid in run.outputs["lossy"]
            or run.outputs["digests"].get(sid)
            != self.golden[(spec.scenario, spec.seed)]
        )
        return n, failed


class LintPinned(Workload):
    """Cold ``run_lint`` over ``src/repro`` as of commit 534eef5."""

    name = "lint-pinned"

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.root: Optional[Path] = None
        self.extractions = 0
        self.source_bytes = 0
        self.ref: Optional[dict] = None

    def _extract(self) -> Path:
        if self.root is not None:
            shutil.rmtree(self.root.parent)
        self.extractions += 1
        dest = self.work / f"lint-snapshot-{self.extractions}"
        with tarfile.open(LINT_SNAPSHOT) as tar:
            tar.extractall(dest, filter="data")
        self.root = dest / "src"
        return self.root

    def _lint(self) -> dict:
        from repro.lint import load_config, run_lint

        report = run_lint(
            self.root, load_config(self.root), baseline_path=False
        )
        return {
            "fingerprints": sorted(f.fingerprint for f in report.findings),
            "files_checked": report.files_checked,
            "parse_errors": len(report.parse_errors),
        }

    def warm_up(self) -> None:
        # The first run on the snapshot is the reference for every
        # later one.
        self._extract()
        self.ref = self._lint()

    def setup(self) -> None:
        root = self._extract()
        self.source_bytes = sum(
            p.stat().st_size for p in (root / "repro").rglob("*.py")
        )

    def run(self, tracer) -> Run:
        outputs = self._lint()
        return Run(outputs["files_checked"], self.source_bytes, outputs)

    def check(self, run: Optional[Run]) -> "tuple[int, int]":
        n = self.ref["files_checked"]
        got = run.outputs if run is not None else None
        if got is None or got["fingerprints"] != self.ref["fingerprints"] or (
            got["files_checked"] != n
        ):
            return n, n
        return n, got["parse_errors"]


WORKLOADS = {
    w.name: w for w in (Table2Cold, ReceiverWarm, FleetMixed, LintPinned)
}
