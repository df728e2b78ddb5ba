"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------
``list``
    Show the available experiments (one per paper table/figure).
``run <id> [<id> ...]``
    Regenerate specific tables/figures; ``run all`` runs everything.
``send <text>``
    Demo: transmit a string over the simulated covert channel and
    print what the receiver recovered.
``keylog <text>``
    Demo: type a string and print the detected keystroke timeline
    (``--stream`` replays the capture through the live detector and
    reports per-keystroke detection latency).
``stream <text>``
    Demo: decode a covert transmission *as it arrives* - chunked
    replay through the streaming receiver with a ring buffer,
    backpressure, and an equivalence check against the batch decoder.
    ``--scenario NAME`` streams any registered scenario's capture
    (``ichannels-throttle``, ``clockmod-fsk``, ``keylog``, ...)
    instead of a text transmission.
``mux [--fleet SCENARIO=COUNT ...]``
    Demo: a fleet of concurrent receivers through the streaming
    multiplexer - shared chunk pool, per-stream backpressure, one
    batched cross-stream DSP tick per config group (``--check``
    verifies every finalised decode against the per-stream path).
``regress [--record]``
    Compare (or re-record) the fixed-seed metric baselines in
    ``baselines/`` - the signal-quality regression gate.
``sweep <name|spec.json>``
    Run a parameter sweep through the cache-topology-aware engine:
    plan the grid along the chain-cache key DAG (``--plan`` prints the
    plan and stops), compute each shared analog prefix exactly once,
    and fan the per-trial tails over the process pool, with resumable
    JSONL results.  ``sweep list`` shows the named presets.
``scenario <name>``
    Run a registered scenario plugin (transmitter / power-model /
    channel / receiver / countermeasure components through the managed
    lifecycle) and print its records and metrics.  ``scenario list``
    shows the registry, including the related-attack ports
    (``ichannels-throttle``, ``clockmod-fsk``).
``lint``
    Static determinism & cache-coherence analysis (``repro.lint``):
    seed provenance, wall-clock containment, cache-schema drift, raw
    store writes, span discipline, float equality.  Non-zero exit on
    any unsuppressed, unbaselined finding; part of ``make lint``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .params import get_profile


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the HPCA 2020 PMU electromagnetic "
            "side-channel study (simulated end to end)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="regenerate paper tables/figures")
    run_p.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run_p.add_argument(
        "--profile",
        default=None,
        help="simulation profile (paper, reduced, tiny, keylog); "
        "default: per-experiment choice",
    )
    run_p.add_argument(
        "--full",
        action="store_true",
        help="paper-weight statistics (slower); default is quick mode",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--output",
        default=None,
        help="also write the results as a Markdown report to this path",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent trials (0 = all CPUs); "
        "results are bit-identical at any worker count",
    )
    run_p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the content-addressed chain cache to this "
        "directory (shared across runs and workers)",
    )
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed chain cache",
    )
    run_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write structured stage/cache/pool events as JSONL to FILE",
    )
    run_p.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write per-experiment run manifests to DIR "
        "(default: alongside --output when given)",
    )

    regress_p = sub.add_parser(
        "regress",
        help="signal-quality regression gate against recorded baselines",
    )
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

    sweep_p = sub.add_parser(
        "sweep",
        help="cache-topology-aware parameter sweep (plan + execute)",
    )
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
    sweep_p.add_argument(
        "--full",
        action="store_true",
        help="paper-weight preset sizes (slower); default is quick mode",
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (0 = all CPUs); results are "
        "bit-identical at any worker count",
    )
    sweep_p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the chain cache to this directory (shared across "
        "runs and workers)",
    )
    sweep_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed chain cache",
    )
    sweep_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write sweep.plan/sweep.trial/stage/cache events as JSONL",
    )

    scenario_p = sub.add_parser(
        "scenario",
        help="run a registered scenario plugin ('scenario list' to "
        "enumerate)",
    )
    scenario_p.add_argument(
        "name",
        help="registered scenario name, or 'list'",
    )
    scenario_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario's default seed",
    )
    scenario_p.add_argument(
        "--full",
        action="store_true",
        help="paper-weight sizing (slower); default is quick mode",
    )
    scenario_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (0 = all CPUs)",
    )
    scenario_p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the chain cache to this directory",
    )
    scenario_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed chain cache",
    )
    scenario_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write scenario/component span events as JSONL",
    )

    lint_p = sub.add_parser(
        "lint",
        help="determinism & cache-coherence static analysis",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint_p)

    send_p = sub.add_parser("send", help="covert-channel demo")
    send_p.add_argument("text", help="ASCII text to exfiltrate")
    send_p.add_argument("--machine", default="Inspiron")
    send_p.add_argument("--profile", default="tiny")
    send_p.add_argument("--seed", type=int, default=0)

    key_p = sub.add_parser("keylog", help="keylogging demo")
    key_p.add_argument("text", help="text the victim types")
    key_p.add_argument("--seed", type=int, default=0)
    key_p.add_argument(
        "--stream",
        action="store_true",
        help="live mode: replay the capture through the streaming "
        "detector and report per-keystroke detection latency",
    )
    key_p.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        metavar="N",
        help="samples per stream chunk (with --stream)",
    )

    stream_p = sub.add_parser(
        "stream", help="streaming covert-channel receiver demo"
    )
    stream_p.add_argument(
        "text",
        nargs="?",
        default=None,
        help="ASCII text to exfiltrate (omit with --scenario)",
    )
    stream_p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="stream a registered scenario's capture instead of a text "
        "transmission (any scenario that renders IQ: stream-covert, "
        "ichannels-throttle, clockmod-fsk, keylog, ...)",
    )
    stream_p.add_argument("--machine", default="Inspiron")
    stream_p.add_argument("--profile", default="tiny")
    stream_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="default: 0, or the scenario's registered seed with "
        "--scenario",
    )
    stream_p.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        metavar="N",
        help="samples per stream chunk",
    )
    stream_p.add_argument(
        "--buffer-capacity",
        type=int,
        default=64,
        metavar="N",
        help="ring buffer capacity in chunks",
    )
    stream_p.add_argument(
        "--policy",
        choices=("block", "drop-oldest"),
        default="block",
        help="ring buffer overflow policy",
    )
    stream_p.add_argument(
        "--jitter",
        type=float,
        default=0.1,
        metavar="REL",
        help="chunk arrival jitter as a fraction of the chunk duration",
    )
    stream_p.add_argument(
        "--service-rate",
        type=float,
        default=None,
        metavar="SPS",
        help="simulated receiver throughput in samples/s "
        "(default: infinitely fast, lossless)",
    )
    stream_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write per-chunk spans and stream events as JSONL to FILE",
    )
    stream_p.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write a run manifest (stats + metrics) to DIR",
    )

    mux_p = sub.add_parser(
        "mux",
        help="fleet streaming demo: many receivers, one batched DSP tick",
    )
    mux_p.add_argument(
        "--fleet",
        action="append",
        default=None,
        metavar="SCENARIO[=COUNT]",
        help="add COUNT streams replaying SCENARIO's capture "
        "(repeatable; default stream-covert=32)",
    )
    mux_p.add_argument("--chunk-size", type=int, default=512, metavar="N")
    mux_p.add_argument(
        "--tick-chunks",
        type=int,
        default=16,
        metavar="N",
        help="chunks per stream per scheduler tick",
    )
    mux_p.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="replay only the first S seconds of each capture",
    )
    mux_p.add_argument("--jitter", type=float, default=0.05, metavar="REL")
    mux_p.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="N",
        help="per-stream queue capacity in chunks "
        "(default: two ticks' arrivals, drop-free)",
    )
    mux_p.add_argument(
        "--policy", choices=("block", "drop-oldest"), default="drop-oldest"
    )
    mux_p.add_argument(
        "--service-rate-factor",
        type=float,
        default=None,
        metavar="X",
        help="per-stream service budget as a multiple of the capture "
        "sample rate (default: unlimited, lossless)",
    )
    mux_p.add_argument(
        "--check",
        action="store_true",
        help="verify every finalised decode against the per-stream "
        "golden path (requires a drop-free run; exits non-zero on "
        "divergence)",
    )
    mux_p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the fleet summary as JSON to FILE",
    )
    mux_p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write mux spans (tick/group/run) as JSONL to FILE",
    )
    return parser


def _cmd_list() -> int:
    from .experiments import list_experiments

    for eid in list_experiments():
        print(eid)
    return 0


def _cmd_run(args) -> int:
    from .exec.pool import default_jobs
    from .experiments.runner import run_experiments

    ids = None if args.ids == ["all"] else args.ids
    profile = get_profile(args.profile) if args.profile else None
    jobs = args.jobs
    if jobs is not None and jobs < 0:
        print(f"error: --jobs must be >= 0, got {jobs}", file=sys.stderr)
        return 2
    if jobs == 0:
        jobs = default_jobs()
    if args.cache_dir is not None:
        cache_path = Path(args.cache_dir)
        if cache_path.exists() and not cache_path.is_dir():
            print(
                f"error: --cache-dir {args.cache_dir} exists and is not "
                "a directory",
                file=sys.stderr,
            )
            return 2
    manifest_dir = args.manifest_dir
    if manifest_dir is None and args.output:
        manifest_dir = str(Path(args.output).resolve().parent)
    results = run_experiments(
        ids,
        profile=profile,
        quick=not args.full,
        seed=args.seed,
        jobs=jobs,
        use_cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        trace=args.trace,
        manifest_dir=manifest_dir,
    )
    if args.output:
        from .reporting import write_report

        write_report(
            results,
            args.output,
            preamble=(
                f"Profile: {args.profile or 'per-experiment default'}; "
                f"quick={not args.full}; seed={args.seed}."
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
    import contextlib
    import json

    from .exec.context import execution_scope
    from .exec.pool import default_jobs
    from .obs.trace import tracing_scope
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
            print(f"error: bad sweep spec {args.spec}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            spec = get_preset(args.spec, seed=args.seed, quick=not args.full)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    jobs = args.jobs
    if jobs is not None and jobs < 0:
        print(f"error: --jobs must be >= 0, got {jobs}", file=sys.stderr)
        return 2
    if jobs == 0:
        jobs = default_jobs()
    with contextlib.ExitStack() as stack:
        overrides = {}
        if jobs is not None:
            overrides["jobs"] = jobs
        if args.no_cache:
            overrides["cache_enabled"] = False
        if args.cache_dir is not None:
            overrides["cache_dir"] = args.cache_dir
        if overrides:
            stack.enter_context(execution_scope(**overrides))
        if args.trace:
            stack.enter_context(tracing_scope(args.trace))
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


def _cmd_scenario(args) -> int:
    import contextlib

    from .exec.context import execution_scope
    from .exec.pool import default_jobs
    from .obs.trace import tracing_scope
    from .scenario import get_scenario, list_scenarios, run_registered
    from .scenario.registry import scenario_id

    if args.name == "list":
        for name in list_scenarios():
            spec = get_scenario(name).spec
            tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
            print(f"{name:<20} {spec.title}{tags}")
        return 0
    try:
        info = get_scenario(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    jobs = args.jobs
    if jobs is not None and jobs < 0:
        print(f"error: --jobs must be >= 0, got {jobs}", file=sys.stderr)
        return 2
    if jobs == 0:
        jobs = default_jobs()
    with contextlib.ExitStack() as stack:
        overrides = {}
        if jobs is not None:
            overrides["jobs"] = jobs
        if args.no_cache:
            overrides["cache_enabled"] = False
        if args.cache_dir is not None:
            overrides["cache_dir"] = args.cache_dir
        if overrides:
            stack.enter_context(execution_scope(**overrides))
        if args.trace:
            stack.enter_context(tracing_scope(args.trace))
        outcome = run_registered(
            args.name,
            seed=args.seed,
            quick=not args.full,
        )
    spec = info.spec
    print(f"scenario {spec.name!r}: {spec.title}")
    print(f"  id {scenario_id(spec)[:16]}  seed {outcome.seed}  "
          f"components: {' -> '.join(outcome.order)}")
    for record in outcome.records:
        print(f"  record {record['label']}: digest {record['digest']}")
    for name in sorted(outcome.metrics):
        print(f"  {name} = {outcome.metrics[name]:g}")
    print(f"done in {outcome.elapsed_s:.2f}s")
    return 0


def _cmd_send(args) -> int:
    from .core.coding import bits_to_bytes, bytes_to_bits, hamming_decode
    from .core.sync import strip_header
    from .covert.link import CovertLink
    from .systems.laptops import by_name

    link = CovertLink(
        machine=by_name(args.machine),
        profile=get_profile(args.profile),
        seed=args.seed,
        use_ecc=True,
    )
    payload = bytes_to_bits(args.text.encode("ascii"))
    print(f"transmitting {payload.size} bits on {link.machine.name} ...")
    result = link.run(payload)
    m = result.metrics
    print(
        f"raw channel: BER={m.ber:.4f} IP={m.insertion_probability:.4f} "
        f"DP={m.deletion_probability:.4f} "
        f"TR={result.transmission_rate_bps:.0f} bps (paper scale)"
    )
    recovered = strip_header(result.decode.bits, link.frame_format)
    if recovered is None:
        print("receiver failed to synchronize")
        return 1
    data, corrected = hamming_decode(recovered)
    text = bits_to_bytes(data[: payload.size]).decode("ascii", errors="replace")
    print(f"ECC corrected {corrected} bit(s)")
    print(f"received: {text!r}")
    return 0


def _cmd_keylog(args) -> int:
    from .keylog.evaluate import KeylogExperiment

    exp = KeylogExperiment(seed=args.seed)
    if args.stream:
        if args.chunk_size < 1:
            print(
                f"error: --chunk-size must be >= 1, got {args.chunk_size}",
                file=sys.stderr,
            )
            return 2
        live = exp.run_streaming(text=args.text, chunk_size=args.chunk_size)
        result = live.result
    else:
        result = exp.run(text=args.text)
    print(
        f"typed {result.n_keystrokes} keystrokes; detected "
        f"{result.n_detected} "
        f"(TPR={result.true_positive_rate:.2f}, "
        f"FPR={result.false_positive_rate:.2f})"
    )
    for ev in result.detection.events:
        print(f"  keystroke at {ev.start:7.3f}s  ({ev.duration * 1e3:5.1f} ms)")
    if args.stream:
        print(
            f"live mode: {len(live.events)} online event(s), detection "
            f"latency mean={live.mean_detection_latency_s * 1e3:.1f} ms "
            f"max={live.max_detection_latency_s * 1e3:.1f} ms"
        )
    return 0


def _cmd_stream(args) -> int:
    import contextlib

    import numpy as np

    from .core.coding import bytes_to_bits
    from .covert.link import CovertLink
    from .obs.manifest import build_manifest, write_manifest
    from .obs.metrics import metrics_scope
    from .obs.trace import tracing_scope
    from .stream import CaptureChunkSource, StreamingReceiver, StreamRunner
    from .systems.laptops import by_name

    if args.chunk_size < 1:
        print(
            f"error: --chunk-size must be >= 1, got {args.chunk_size}",
            file=sys.stderr,
        )
        return 2
    if args.buffer_capacity < 1:
        print(
            "error: --buffer-capacity must be >= 1, got "
            f"{args.buffer_capacity}",
            file=sys.stderr,
        )
        return 2
    if args.jitter < 0:
        print(f"error: --jitter cannot be negative, got {args.jitter}",
              file=sys.stderr)
        return 2
    if args.service_rate is not None and args.service_rate <= 0:
        print(
            f"error: --service-rate must be positive, got {args.service_rate}",
            file=sys.stderr,
        )
        return 2
    if args.scenario is not None:
        if args.text is not None:
            print(
                "error: give either TEXT or --scenario, not both",
                file=sys.stderr,
            )
            return 2
        return _cmd_stream_scenario(args)
    if args.text is None:
        print("error: TEXT is required without --scenario", file=sys.stderr)
        return 2

    seed = 0 if args.seed is None else args.seed
    link = CovertLink(
        machine=by_name(args.machine),
        profile=get_profile(args.profile),
        seed=seed,
    )
    payload = bytes_to_bits(args.text.encode("ascii"))
    print(f"transmitting {payload.size} bits on {link.machine.name} ...")
    batch = link.run(payload)
    bit_period = link.transmitter(
        np.random.default_rng(link.seed)
    ).nominal_bit_duration_s()

    with contextlib.ExitStack() as stack:
        registry = stack.enter_context(metrics_scope())
        if args.trace:
            stack.enter_context(tracing_scope(args.trace))
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
            buffer_capacity=args.buffer_capacity,
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


def _cmd_stream_scenario(args) -> int:
    """``repro stream --scenario NAME``: stream any registered scenario."""
    import contextlib

    import numpy as np

    from .core.align import align_bits
    from .mux.fleet import stream_spec_from_scenario
    from .obs.metrics import metrics_scope
    from .obs.trace import tracing_scope
    from .stream import StreamRunner

    try:
        spec = stream_spec_from_scenario(args.scenario, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    capture = spec.capture
    print(
        f"streaming scenario {spec.scenario!r} (seed {spec.seed}, "
        f"{spec.kind}): {capture.samples.size} samples at "
        f"{capture.sample_rate:.0f} S/s, band {spec.vrm_frequency_hz:.0f} Hz"
    )

    with contextlib.ExitStack() as stack:
        stack.enter_context(metrics_scope())
        if args.trace:
            stack.enter_context(tracing_scope(args.trace))
        source = spec.make_source(args.chunk_size, args.jitter, spec.seed)
        receiver = spec.make_receiver(online=True)
        runner = StreamRunner(
            source,
            receiver,
            buffer_capacity=args.buffer_capacity,
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
    if spec.kind == "keylog":
        print(
            f"finalised {len(final.events)} keystroke event(s); "
            f"{run.n_events} online event(s)"
        )
        return 0
    line = f"finalised {final.bits.size} bit(s)"
    if spec.tx_bits is not None and final.bits.size:
        ber = align_bits(np.asarray(spec.tx_bits), final.bits).ber
        line += f"; BER vs transmitted: {ber:.3f}"
    print(line + f"; sync={'locked' if receiver.synchronized else 'none'}")
    return 0


def _cmd_mux(args) -> int:
    import contextlib
    import json
    import time

    from .mux import FleetStreamSpec, build_multiplexer, finalized_digests
    from .mux.fleet import golden_digest
    from .obs.metrics import metrics_scope
    from .obs.trace import tracing_scope

    for flag, value, floor in (
        ("--chunk-size", args.chunk_size, 1),
        ("--tick-chunks", args.tick_chunks, 1),
        ("--capacity", args.capacity, 1),
        ("--jitter", args.jitter, 0),
        ("--duration", args.duration, None),  # None: strictly positive
        ("--service-rate-factor", args.service_rate_factor, None),
    ):
        # Written so that NaN fails too.
        if value is not None and not (
            value > 0 if floor is None else value >= floor
        ):
            need = "positive" if floor is None else f">= {floor}"
            print(f"error: {flag} must be {need}, got {value}",
                  file=sys.stderr)
            return 2

    entries = args.fleet if args.fleet else ["stream-covert=32"]
    fleet = []
    for entry in entries:
        name, _, count = entry.partition("=")
        try:
            n = int(count) if count else 1
        except ValueError:
            print(
                f"error: bad --fleet entry {entry!r} "
                "(expected SCENARIO[=COUNT])",
                file=sys.stderr,
            )
            return 2
        if n < 1 or not name:
            print(f"error: bad --fleet entry {entry!r}", file=sys.stderr)
            return 2
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

    with contextlib.ExitStack() as stack:
        stack.enter_context(metrics_scope())
        if args.trace:
            stack.enter_context(tracing_scope(args.trace))
        try:
            mux, by_stream = build_multiplexer(
                fleet,
                chunk_size=args.chunk_size,
                tick_chunks=args.tick_chunks,
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        mux.run()
        elapsed = time.perf_counter() - t0
        mux.check_conservation()

    empty = [
        sid for sid in mux.stream_ids if mux.state(sid).mux.sstft.n_frames == 0
    ]
    if empty:
        print(
            f"error: {len(empty)} stream(s) produced no envelope frames "
            f"(first: {empty[0]}); the replayed capture is shorter than "
            "one analysis window - raise --duration",
            file=sys.stderr,
        )
        return 2

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

    summary = {
        "streams": mux.n_streams,
        "ticks": mux.ticks,
        "elapsed_s": round(elapsed, 3),
        "shed_fraction": mux.shed_fraction(),
        "totals": totals,
        "pool_high_watermark": mux.pool.high_watermark,
        "digests": digests,
    }
    if args.json:
        path = Path(args.json)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"summary written to {path}")

    if args.check:
        lossy = totals["dropped_chunks"] + totals["shed_chunks"]
        if lossy:
            print(
                f"error: --check needs a drop-free run but {lossy} "
                "chunk(s) were lost; raise --capacity or drop "
                "--service-rate-factor",
                file=sys.stderr,
            )
            return 2
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
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "regress":
        return _cmd_regress(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "lint":
        from .lint.cli import cmd_lint

        return cmd_lint(args)
    if args.command == "send":
        return _cmd_send(args)
    if args.command == "keylog":
        return _cmd_keylog(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "mux":
        return _cmd_mux(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
