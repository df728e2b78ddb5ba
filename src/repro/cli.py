"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------
``run <id> [<id> ...]``
    Regenerate paper tables/figures, or run a registered scenario
    plugin (``ichannels-throttle``, ``clockmod-fsk``, ``keylog``,
    ``stream-covert``) and report its record digests and gauges.  An
    experiment id wins where both registries hold a name.  ``run all``
    runs every paper experiment; ``run --list`` shows what can run.
``sweep <name|spec.json>``
    Run a parameter sweep through the cache-topology-aware engine:
    plan the grid along the chain-cache key DAG (``--plan`` prints the
    plan and stops), compute each shared analog prefix exactly once,
    and fan the per-trial tails over the process pool, with resumable
    JSONL results.  ``sweep list`` shows the named presets.
``stream <text>`` / ``stream --fleet SCENARIO[=COUNT] ...``
    Decode a covert transmission *as it arrives*: chunked replay
    through the streaming receiver with a ring buffer, backpressure,
    and a bit-exact check against the batch decoder.  With ``--fleet``,
    replay registered scenarios' captures as a fleet of concurrent
    receivers through the streaming multiplexer - shared chunk pool,
    per-stream backpressure, one batched cross-stream DSP tick per
    config group (``--check`` verifies every finalised decode against
    the per-stream path).  A lone scenario stream is ``--fleet NAME=1``.
``regress [--record]``
    Compare (or re-record) the fixed-seed metric baselines in
    ``baselines/`` - the signal-quality regression gate.
``lint``
    Static determinism & cache-coherence analysis (``repro.lint``):
    seed provenance, wall-clock containment, raw store writes, float
    equality.  Non-zero exit on any unsuppressed, unbaselined finding;
    part of ``make lint``.

Bad arguments exit 2 with an ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import List, Optional

from .params import get_profile

#: ``stream`` flags that apply to one mode only (TEXT or ``--fleet``).
_TEXT_ONLY = ("machine", "profile", "seed", "service_rate", "manifest_dir")
_FLEET_ONLY = ("tick_chunks", "duration", "service_rate_factor", "check", "json")


class _UsageError(Exception):
    """A bad argument: ``main`` prints ``error: <message>`` and exits 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the HPCA 2020 PMU electromagnetic "
            "side-channel study (simulated end to end)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write structured span/cache/stream events as JSONL to FILE",
    )
    executed = argparse.ArgumentParser(add_help=False, parents=[traced])
    executed.add_argument(
        "--full",
        action="store_true",
        help="paper-weight statistics (slower); default is quick mode",
    )
    executed.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent trials (0 = all CPUs); "
        "results are bit-identical at any worker count",
    )
    executed.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the content-addressed chain cache to this "
        "directory (shared across runs and workers)",
    )
    executed.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed chain cache",
    )

    run_p = sub.add_parser(
        "run",
        parents=[executed],
        help="regenerate paper tables/figures or run a scenario",
    )
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument(
        "ids",
        nargs="*",
        help="experiment ids or scenario names, or 'all' (every paper "
        "experiment)",
    )
    run_p.add_argument(
        "--list",
        action="store_true",
        help="list the experiment ids and scenario names, then exit",
    )
    run_p.add_argument(
        "--profile",
        default=None,
        help="simulation profile for paper experiments (paper, reduced, "
        "tiny, keylog); default: per-experiment choice",
    )
    run_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="default: 0 for experiments, the registered seed for scenarios",
    )
    run_p.add_argument(
        "--output",
        default=None,
        help="also write the results as a Markdown report to this path",
    )
    run_p.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write per-experiment run manifests to DIR "
        "(default: alongside --output when given)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        parents=[executed],
        help="cache-topology-aware parameter sweep (plan + execute)",
    )
    sweep_p.set_defaults(handler=_cmd_sweep)
    sweep_p.add_argument(
        "spec",
        help="preset name (see 'sweep list'), or a SweepSpec JSON file",
    )
    sweep_p.add_argument(
        "--plan",
        action="store_true",
        help="print the key-DAG plan (sharing, warm groups) and exit",
    )
    sweep_p.add_argument(
        "--results",
        default=None,
        metavar="FILE",
        help="append per-trial records to this JSONL file; trials whose "
        "records are already present are skipped (resume)",
    )
    sweep_p.add_argument(
        "--fresh",
        action="store_true",
        help="ignore existing records in --results (no resume)",
    )
    sweep_p.add_argument(
        "--naive",
        action="store_true",
        help="reference path: run every trial independently with the "
        "chain cache disabled",
    )
    sweep_p.add_argument("--seed", type=int, default=0)

    stream_p = sub.add_parser(
        "stream",
        parents=[traced],
        help="streaming covert-channel receiver, or a fleet of receivers",
    )
    stream_p.set_defaults(handler=_cmd_stream)
    stream_p.add_argument(
        "text",
        nargs="?",
        default=None,
        help="ASCII text to exfiltrate (omit with --fleet)",
    )
    stream_p.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        metavar="N",
        help="samples per stream chunk",
    )
    stream_p.add_argument(
        "--capacity",
        type=int,
        default=64,
        metavar="N",
        help="per-stream buffer capacity in chunks",
    )
    stream_p.add_argument(
        "--policy",
        choices=("block", "drop-oldest"),
        default="block",
        help="buffer overflow policy",
    )
    stream_p.add_argument(
        "--jitter",
        type=float,
        default=0.1,
        metavar="REL",
        help="chunk arrival jitter as a fraction of the chunk duration",
    )
    text_g = stream_p.add_argument_group("TEXT mode")
    text_g.add_argument("--machine", default=None, help="default: Inspiron")
    text_g.add_argument("--profile", default=None, help="default: tiny")
    text_g.add_argument("--seed", type=int, default=None, help="default: 0")
    text_g.add_argument(
        "--service-rate",
        type=float,
        default=None,
        metavar="SPS",
        help="simulated receiver throughput in samples/s "
        "(default: infinitely fast, lossless)",
    )
    text_g.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write a run manifest (stats + metrics) to DIR",
    )
    fleet_g = stream_p.add_argument_group("fleet mode")
    fleet_g.add_argument(
        "--fleet",
        action="append",
        default=None,
        metavar="SCENARIO[=COUNT]",
        help="add COUNT (default 1) streams replaying a registered "
        "scenario's capture (repeatable)",
    )
    fleet_g.add_argument(
        "--tick-chunks",
        type=int,
        default=None,
        metavar="N",
        help="chunks per stream per scheduler tick (default: 16)",
    )
    fleet_g.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="replay only the first S seconds of each capture",
    )
    fleet_g.add_argument(
        "--service-rate-factor",
        type=float,
        default=None,
        metavar="X",
        help="per-stream service budget as a multiple of the capture "
        "sample rate (default: unlimited, lossless)",
    )
    fleet_g.add_argument(
        "--check",
        action="store_true",
        help="verify every finalised decode against the per-stream "
        "golden path (requires a drop-free run; exits non-zero on "
        "divergence)",
    )
    fleet_g.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the fleet summary as JSON to FILE",
    )

    regress_p = sub.add_parser(
        "regress",
        help="signal-quality regression gate against recorded baselines",
    )
    regress_p.set_defaults(handler=_cmd_regress)
    regress_p.add_argument(
        "--record",
        action="store_true",
        help="re-record the baselines instead of comparing against them",
    )
    regress_p.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="baseline directory (default: ./baselines)",
    )
    regress_p.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to one scenario (repeatable; default: all)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="determinism & cache-coherence static analysis",
    )
    from .lint.cli import add_lint_arguments, cmd_lint

    lint_p.set_defaults(handler=cmd_lint)
    add_lint_arguments(lint_p)
    return parser


def _check_ranges(checks) -> None:
    """Raise for the first ``(flag, value, floor)`` out of range; a
    floor of None means strictly positive.  Written so NaN fails too."""
    for flag, value, floor in checks:
        if value is not None and not (
            value > 0 if floor is None else value >= floor
        ):
            need = "positive" if floor is None else f">= {floor}"
            raise _UsageError(f"{flag} must be {need}, got {value}")


@contextlib.contextmanager
def _traced(args, *scopes):
    """Enter ``scopes``, then trace to ``--trace`` when it is given."""
    from .obs.trace import tracing_scope

    with contextlib.ExitStack() as stack:
        for scope in scopes:
            stack.enter_context(scope)
        if args.trace:
            stack.enter_context(tracing_scope(args.trace))
        yield stack


def _execution(args):
    """The one execution scope ``run`` and ``sweep`` share: checks
    ``--jobs``/``--cache-dir`` and applies ``--no-cache``."""
    from .exec.context import execution_scope
    from .exec.pool import default_jobs

    _check_ranges([("--jobs", args.jobs, 0)])
    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = args.jobs or default_jobs()
    if args.no_cache:
        overrides["cache_enabled"] = False
    if args.cache_dir is not None:
        cache_path = Path(args.cache_dir)
        if cache_path.exists() and not cache_path.is_dir():
            raise _UsageError(
                f"--cache-dir {args.cache_dir} exists and is not a directory"
            )
        overrides["cache_dir"] = args.cache_dir
    return _traced(args, execution_scope(**overrides))


def _cmd_run(args) -> int:
    from .experiments import get_experiment, list_experiments
    from .experiments.runner import run_experiments
    from .scenario import get_scenario, list_scenarios

    experiments = list_experiments()
    if args.list:
        for eid in experiments:
            print(eid)
        for name in list_scenarios():
            if name not in experiments:
                spec = get_scenario(name).spec
                tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
                print(f"{name:<20} {spec.title}{tags}")
        return 0
    if not args.ids:
        raise _UsageError("give experiment ids or scenario names (see --list)")
    ids = None if args.ids == ["all"] else args.ids
    for eid in ids or ():
        try:
            get_experiment(eid)
        except KeyError as exc:
            raise _UsageError(exc.args[0]) from None
        if args.profile and eid not in experiments:
            raise _UsageError(
                f"--profile applies to paper experiments; {eid!r} is a "
                "scenario with its own sizing"
            )
    manifest_dir = args.manifest_dir
    if manifest_dir is None and args.output:
        manifest_dir = str(Path(args.output).resolve().parent)
    with _execution(args):
        results = run_experiments(
            ids,
            profile=get_profile(args.profile) if args.profile else None,
            quick=not args.full,
            seed=args.seed,
            manifest_dir=manifest_dir,
        )
    if args.output:
        from .reporting import write_report

        seeds = sorted({r.manifest["seed"] for r in results})
        write_report(
            results,
            args.output,
            preamble=(
                f"Profile: {args.profile or 'per-experiment default'}; "
                f"quick={not args.full}; seed={', '.join(map(str, seeds))}."
            ),
        )
        print(f"report written to {args.output}")
    return 0


def _cmd_regress(args) -> int:
    from .obs.baseline import DEFAULT_BASELINE_DIR, compare, record

    directory = args.baseline_dir or DEFAULT_BASELINE_DIR
    if args.record:
        for path in record(directory, scenarios=args.scenario):
            print(f"baseline recorded: {path}")
        return 0
    report = compare(directory, scenarios=args.scenario)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_sweep(args) -> int:
    import json

    from .sweep import SweepSpec, get_preset, plan_sweep, run_sweep
    from .sweep.presets import PRESETS

    if args.spec == "list":
        for name in sorted(PRESETS):
            print(name)
        return 0
    spec_path = Path(args.spec)
    if spec_path.exists():
        try:
            with spec_path.open("r", encoding="utf-8") as fh:
                spec = SweepSpec.from_mapping(json.load(fh))
        except (json.JSONDecodeError, ValueError) as exc:
            raise _UsageError(f"bad sweep spec {args.spec}: {exc}") from None
    else:
        try:
            spec = get_preset(args.spec, seed=args.seed, quick=not args.full)
        except KeyError as exc:
            raise _UsageError(exc.args[0]) from None
    with _execution(args):
        plan = plan_sweep(spec)
        print(plan.describe())
        if args.plan:
            return 0
        outcome = run_sweep(
            spec,
            plan=plan,
            results_path=args.results,
            resume=not args.fresh,
            naive=args.naive,
        )
        width = max(
            [len(r["label"] or r["trial_id"][:12]) for r in outcome.records]
            + [len("trial")]
        )
        print(f"{'trial':<{width}}  {'BER':>8}  {'IP':>8}  {'DP':>8}  "
              f"{'TR_bps':>8}")
        for record in outcome.records:
            name = record["label"] or record["trial_id"][:12]
            r = record["result"]
            print(
                f"{name:<{width}}  {r['ber']:>8.4f}  {r['ip']:>8.4f}  "
                f"{r['dp']:>8.4f}  {r['tr_bps']:>8.0f}"
            )
        shards = int(outcome.stats.get("shards", 0))
        if outcome.naive:
            mode = "naive"
        elif shards > 1:
            mode = f"engine ({shards} shards)"
        else:
            mode = "engine"
        print(
            f"{mode}: {outcome.executed} executed, {outcome.resumed} "
            f"resumed in {outcome.elapsed_s:.2f}s; plan shared "
            f"{plan.stages_saved} of {plan.naive_stage_runs} stage runs "
            f"({plan.sharing_factor:.2f}x)"
        )
    return 0


def _cmd_stream(args) -> int:
    _check_ranges(
        [
            ("--chunk-size", args.chunk_size, 1),
            ("--capacity", args.capacity, 1),
            ("--jitter", args.jitter, 0),
            ("--service-rate", args.service_rate, None),
            ("--tick-chunks", args.tick_chunks, 1),
            ("--duration", args.duration, None),
            ("--service-rate-factor", args.service_rate_factor, None),
        ]
    )
    if (args.text is None) == (args.fleet is None):
        raise _UsageError("give either TEXT or --fleet (not both)")
    other = _TEXT_ONLY if args.fleet else _FLEET_ONLY
    # Identity, not equality: ``--seed 0`` is given, ``check=False`` is not.
    given = [
        name
        for name in other
        if getattr(args, name) is not None and getattr(args, name) is not False
    ]
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        mode = "TEXT" if args.text is not None else "--fleet"
        raise _UsageError(f"{flags} cannot be used with {mode}")
    if args.fleet:
        return _stream_fleet(args)
    return _stream_text(args)


def _stream_text(args) -> int:
    """``stream TEXT``: one streaming receiver, checked against batch."""
    import numpy as np

    from .core.coding import bytes_to_bits
    from .covert.link import CovertLink
    from .obs.manifest import build_manifest, write_manifest
    from .obs.metrics import metrics_scope
    from .stream import CaptureChunkSource, StreamingReceiver, StreamRunner
    from .systems.laptops import by_name

    seed = args.seed or 0
    link = CovertLink(
        machine=by_name(args.machine or "Inspiron"),
        profile=get_profile(args.profile or "tiny"),
        seed=seed,
    )
    payload = bytes_to_bits(args.text.encode("ascii"))
    print(f"transmitting {payload.size} bits on {link.machine.name} ...")
    batch = link.run(payload)
    bit_period = link.transmitter(
        np.random.default_rng(link.seed)
    ).nominal_bit_duration_s()

    with _traced(args) as stack:
        registry = stack.enter_context(metrics_scope())
        source = CaptureChunkSource(
            batch.capture, args.chunk_size, jitter_rel=args.jitter
        )
        receiver = StreamingReceiver(
            source.meta,
            link.vrm_frequency_hz,
            expected_bit_period_s=bit_period,
            config=link.decoder_config,
            frame_format=link.frame_format,
        )
        runner = StreamRunner(
            source,
            receiver,
            buffer_capacity=args.capacity,
            policy=args.policy,
            service_rate_sps=args.service_rate,
        )
        run = runner.run()
        final = receiver.finalize()

    stats = run.stats
    print(
        f"streamed {stats.chunks_total} chunk(s) of {args.chunk_size}: "
        f"{stats.chunks_processed} processed, {stats.chunks_dropped} "
        f"dropped, {stats.chunks_shed} shed "
        f"(policy={stats.policy}, capacity={stats.buffer_capacity})"
    )
    print(
        f"lag mean={stats.mean_lag_s * 1e3:.1f} ms "
        f"max={stats.max_lag_s * 1e3:.1f} ms; buffer high watermark "
        f"{stats.high_watermark}; {run.n_events} online event(s) "
        f"({stats.events_per_s:.1f}/s); sync="
        f"{'locked' if receiver.synchronized else 'none'}"
    )
    if stats.lossless:
        exact = final.bits.size == batch.decode.bits.size and bool(
            np.array_equal(final.bits, batch.decode.bits)
        )
        print(
            f"finalised {final.bits.size} bit(s): "
            f"{'bit-exact with' if exact else 'DIVERGED from'} the batch "
            "decoder"
        )
        if not exact:
            return 1
    else:
        diff = int(
            np.count_nonzero(
                final.bits[: batch.decode.bits.size]
                != batch.decode.bits[: final.bits.size]
            )
        )
        print(
            f"finalised {final.bits.size} bit(s) from a lossy stream "
            f"({stats.samples_dropped + stats.samples_shed} sample(s) "
            f"lost); {diff} bit(s) differ from the batch decode"
        )
    if args.manifest_dir:
        manifest = build_manifest(
            experiment_id="stream-demo",
            title="streaming covert receiver demo",
            profile=link.profile,
            seed=seed,
            metrics_snapshot=registry.snapshot(),
        )
        manifest["stream"] = stats.as_dict()
        path = write_manifest(
            manifest, Path(args.manifest_dir) / "stream-demo.json"
        )
        print(f"manifest written to {path}")
    return 0


def _stream_fleet(args) -> int:
    """``stream --fleet``: many receivers through the multiplexer."""
    import json
    import time

    from .mux import FleetStreamSpec, build_multiplexer, finalized_digests
    from .mux.fleet import golden_digest
    from .obs.metrics import metrics_scope

    fleet = []
    for entry in args.fleet:
        name, _, count = entry.partition("=")
        try:
            n = int(count) if count else 1
        except ValueError:
            n = 0
        if n < 1 or not name:
            raise _UsageError(
                f"bad --fleet entry {entry!r} (expected SCENARIO[=COUNT])"
            )
        fleet.append(
            FleetStreamSpec(
                name,
                count=n,
                capacity=args.capacity,
                policy=args.policy,
                service_rate_factor=args.service_rate_factor,
                jitter_rel=args.jitter,
                duration_s=args.duration,
            )
        )

    with _traced(args, metrics_scope()):
        try:
            mux, by_stream = build_multiplexer(
                fleet,
                chunk_size=args.chunk_size,
                tick_chunks=args.tick_chunks or 16,
            )
        except (KeyError, ValueError) as exc:
            # An unknown scenario, or one that renders no capture.
            raise _UsageError(exc.args[0]) from None
        t0 = time.perf_counter()
        mux.run()
        elapsed = time.perf_counter() - t0
        mux.check_conservation()

    empty = [
        sid for sid in mux.stream_ids if mux.state(sid).mux.sstft.n_frames == 0
    ]
    if empty:
        raise _UsageError(
            f"{len(empty)} stream(s) produced no envelope frames "
            f"(first: {empty[0]}); the replayed capture is shorter than "
            "one analysis window - raise --duration"
        )

    totals = mux.totals()
    print(
        f"multiplexed {mux.n_streams} stream(s) over {mux.ticks} tick(s) "
        f"in {elapsed:.2f} s: {totals['delivered_chunks']} delivered, "
        f"{totals['dropped_chunks']} dropped, {totals['shed_chunks']} "
        f"shed (shed fraction {mux.shed_fraction():.3f})"
    )
    print(
        f"aggregate {totals['delivered_samples'] / max(elapsed, 1e-9) / 1e6:.2f} "
        f"Msamples/s; pool high watermark {mux.pool.high_watermark}/"
        f"{mux.pool.n_slabs} slab(s); {totals['events']} online event(s)"
    )
    digests = finalized_digests(mux, by_stream)
    if args.json:
        summary = {
            "streams": mux.n_streams,
            "ticks": mux.ticks,
            "elapsed_s": round(elapsed, 3),
            "shed_fraction": mux.shed_fraction(),
            "totals": totals,
            "pool_high_watermark": mux.pool.high_watermark,
            "digests": digests,
        }
        path = Path(args.json)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"summary written to {path}")

    if args.check:
        lossy = totals["dropped_chunks"] + totals["shed_chunks"]
        if lossy:
            raise _UsageError(
                f"--check needs a drop-free run but {lossy} chunk(s) were "
                "lost; raise --capacity or drop --service-rate-factor"
            )
        goldens: dict = {}
        diverged = 0
        for stream_id, spec in by_stream.items():
            key = (spec.scenario, spec.seed, spec.capture.samples.size)
            if key not in goldens:
                goldens[key] = golden_digest(spec, args.chunk_size)
            if digests[stream_id] != goldens[key]:
                diverged += 1
                print(
                    f"DIVERGED {stream_id}: {digests[stream_id]} != "
                    f"{goldens[key]}",
                    file=sys.stderr,
                )
        if diverged:
            print(
                f"check FAILED: {diverged}/{mux.n_streams} stream(s) "
                "diverged from the per-stream golden path",
                file=sys.stderr,
            )
            return 1
        print(
            f"check OK: all {mux.n_streams} finalised decode(s) "
            "bit-identical to the per-stream golden path"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
