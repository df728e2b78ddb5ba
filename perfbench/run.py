"""Benchmark driver: one workload at one seed, end-to-end or per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload table2-cold --seed 0 --seconds 15 --trace 0

``--trace 0`` times untraced runs and reports the ``end_to_end``
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and
traced runs and reports the ``per_layer`` metrics (see ``layers.py``).
Every run is checked against a per-seed reference; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
and the exit code is 0 only when every check passed.  Lines above it
print every metric with its unit and the run stamp (CPU count, commit,
source digest, ``CHAIN_SCHEMA``, Python/numpy versions, executor
decision), which is also stored with the result under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("table2-cold", "receiver-warm", "fleet-mixed", "lint-pinned")

#: Untraced runs a ``--trace 0`` run makes at least, however long they take.
MIN_RUNS = 3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(package: Path) -> str:
    """sha256 over every file of the package (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(package).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (Linux >= 4.0)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the peak then covers the whole process


def peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RefStore:
    """Reference outputs on disk, one JSON file per name, keyed by the
    source digest so a changed program never reads a stale reference."""

    def __init__(self, directory: Path):
        self.directory = directory

    def get(self, name: str, compute):
        path = self.directory / f"{name}.json"
        if path.is_file():
            return json.loads(path.read_text())
        value = compute()
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(value, sort_keys=True))
        os.replace(tmp, path)
        return value


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _p90(values: List[float]) -> float:
    return quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure(wl, seconds: float, trace: bool, targets, refs: RefStore) -> dict:
    """Warm up, set up, run for ``seconds``, then check every run."""
    from spans import Tracer

    wl.warm_up()
    setups = [_timed(wl.setup) for _ in range(wl.SETUP_REPEATS)]
    reset_peak_rss()
    runs, tracers = [], []
    started = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        if not wl.SETUP_REPEATS:
            setups.append(_timed(wl.setup))
        wl.before_run()
        gc.collect()
        tracer = Tracer(targets).install() if traced else None
        t0 = time.perf_counter()
        try:
            result = wl.run(tracer)
        except Exception:
            traceback.print_exc()
            result = None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.remove()
        if result is not None:
            wl.after_run(result)
        runs.append({"wall": wall, "traced": traced, "result": result})
        if tracer is not None:
            tracers.append(tracer)
        n_plain = sum(not r["traced"] for r in runs)
        n_traced = len(runs) - n_plain
        done = time.perf_counter() - started >= seconds and (
            n_traced >= 1 and n_plain >= 1 if trace else n_plain >= MIN_RUNS
        )
        if done:
            break
    peak = peak_rss_mb()
    wl.reference(refs)
    attempted = failed = 0
    for run in runs:
        a, f = wl.check(run["result"])  # a run that raised fails whole
        attempted, failed = attempted + a, failed + f
    return {
        "setups": setups,
        "runs": runs,
        "tracers": tracers,
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": failed,
    }


def end_to_end(m: dict) -> Dict[str, float]:
    """Medians over the untraced runs of one invocation."""
    plain = [r for r in m["runs"] if not r["traced"] and r["result"]]
    if not plain:
        return {}
    return {
        "setup_s": median(m["setups"]),
        "wall_s": median(r["wall"] for r in plain),
        "items_per_s": median(r["result"].items / r["wall"] for r in plain),
        "input_mb_per_s": median(
            r["result"].input_bytes / r["wall"] / 1e6 for r in plain
        ),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def tick_latency(m: dict) -> Dict[str, float]:
    ticks = [
        t for r in m["runs"] if not r["traced"] and r["result"]
        for t in r["result"].ticks
    ]
    if not ticks:
        return {"mux.tick_p50_ms": 0.0, "mux.tick_p90_ms": 0.0}
    return {
        "mux.tick_p50_ms": median(ticks) * 1e3,
        "mux.tick_p90_ms": _p90(ticks) * 1e3,
    }


def per_layer(m: dict, e2e: Dict[str, float]) -> Dict[str, float]:
    from layers import layer_metrics, median_metrics

    traced = [
        (r, t) for r, t in zip(
            [r for r in m["runs"] if r["traced"]], m["tracers"]
        ) if r["result"]
    ]
    if not traced or not e2e:
        return {}
    out = median_metrics(
        [layer_metrics(t.spans, r["result"].extra) for r, t in traced]
    )
    out.update(tick_latency(m))
    out["obs.trace_overhead"] = (
        median(r["wall"] for r, _ in traced) / e2e["wall_s"] - 1.0
    )
    return out


#: The per-workload names of the generic throughput metrics, printed
#: beside them: (metric, name, unit, scale).  IQ is complex64, 8 B/sample.
MSPS = ("input_mb_per_s", "msps", "Msamples/s", 1 / 8)
ALIASES = {
    "table2-cold": [("items_per_s", "trials_per_s", "trials/s", 1), MSPS],
    "receiver-warm": [("items_per_s", "trials_per_s", "trials/s", 1), MSPS],
    "fleet-mixed": [("items_per_s", "chunks_per_s", "chunks/s", 1), MSPS],
    "lint-pinned": [("items_per_s", "files_per_s", "files/s", 1)],
}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One process, no extra threads: BLAS pools stay at one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    from repro.exec.cache import CHAIN_SCHEMA
    from repro.exec.context import execution_scope
    from repro.exec.executor import effective_cpus
    from workloads import WORKLOADS

    digest = source_digest(ROOT / "src" / "repro")
    refs = RefStore(WORK / "refs" / digest[:16])
    work = WORK / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        from layers import targets

        wl = WORKLOADS[args.workload](args.seed, work)
        stamp = {
            "cpus": effective_cpus(),
            "commit": git_commit(ROOT),
            "source_sha256": digest,
            "chain_schema": CHAIN_SCHEMA,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "executor": wl.executor(),
        }
        with execution_scope(jobs=1):
            m = measure(wl, args.seconds, bool(args.trace), targets(), refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(m)
    layer = per_layer(m, e2e) if args.trace else {}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    names = {d["name"] for d in declared}
    complete = set(values) == names
    if not complete:
        print(f"error: metrics {sorted(names ^ set(values))} missing or "
              "undeclared", file=sys.stderr)

    runs = m["runs"]
    error_rate = m["failed"] / max(m["attempted"], 1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)} traced={sum(r['traced'] for r in runs)}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    units = {d["name"]: d["unit"] for d in declared}
    for name in sorted(values):
        print(f"  {name:32s} {values[name]:14.6g} {units.get(name, '')}")
    if not args.trace:
        for metric, name, unit, scale in ALIASES[args.workload]:
            print(f"  {name:32s} {e2e.get(metric, 0) * scale:14.6g} {unit}")
        if args.workload == "fleet-mixed":
            for name, value in tick_latency(m).items():
                print(f"  {name:32s} {value:14.6g} ms")
    print(f"  {'error_rate':32s} {error_rate:14.6g} fraction "
          f"({m['failed']}/{m['attempted']})")

    result = {
        "correct": complete and m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in sorted(values) if name in units
        },
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "stamp": stamp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "walls_s": [r["wall"] for r in runs],
        "traced": [r["traced"] for r in runs],
        "setups_s": m["setups"],
        "error_rate": error_rate,
        **result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if m["tracers"]:
        m["tracers"][-1].write(out_dir / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
