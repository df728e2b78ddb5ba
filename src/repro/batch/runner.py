"""Batched sweep execution: plan in, per-trial records out.

:func:`run_trials_batched` is the sweep engine's one execution lane.
It runs trial-major: the digital half is prepared once per distinct
digital prefix, every distinct chain node is computed exactly once
through the grouped kernels
(:func:`repro.batch.chain.render_captures_batched`), and the receiver
tails share one union-of-positions envelope kernel call per capture
(:func:`repro.dsp.stft.band_energy`) instead of N overlapping sliding
FFTs.

The output records are bit-identical to a naive per-trial
``link.run`` - same schema, same decoded-bits digests, same RNG exit
digests - for any partition of the trials into batches.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence

import numpy as np

from ..core.acquisition import Envelope, harmonic_bins
from ..core.align import align_bits
from ..core.decoder import BatchDecoder
from ..dsp.detection import histogram_modes
from ..dsp.stft import band_energy, frame_stack, frame_times
from ..dsp.windows import get_window
from ..obs.metrics import tap_batch_run
from ..obs.trace import key_prefix, rng_digest, span
from ..sweep.plan import TrialPlan
from ..sweep.spec import build_link, trial_payload
from ..sweep.store import STORE_SCHEMA
from .chain import ChainRequest, ResolvedCapture, render_captures_batched


def _bits_digest(bits: np.ndarray) -> str:
    import hashlib

    data = np.ascontiguousarray(np.asarray(bits), dtype=np.uint8)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def run_trials_batched(pending: Sequence[TrialPlan]) -> List[dict]:
    """Execute every pending trial trial-major; returns the records in
    ``pending`` order."""
    # ---- digital half, once per distinct prefix -----------------------
    links = {tp.trial_id: build_link(tp.trial) for tp in pending}
    prepared: Dict[str, dict] = {}
    for tp in pending:
        if tp.digital_id in prepared:
            continue
        prep = links[tp.trial_id].prepare(trial_payload(tp.trial))
        prepared[tp.digital_id] = {
            "tx_bits": prep.tx_bits,
            "activity": prep.activity,
            "nominal": prep.nominal_bit_duration_s,
            "entry_state": prep.rng.bit_generator.state,
        }

    # ---- analog chain, one pass per distinct node ---------------------
    requests = []
    for tp in pending:
        link = links[tp.trial_id]
        digital = prepared[tp.digital_id]
        requests.append(
            ChainRequest(
                machine=link.machine,
                activity=digital["activity"],
                scenario=link.scenario,
                profile=link.profile,
                allow_c_states=link.allow_c_states,
                allow_p_states=link.allow_p_states,
                vrm_dithering=link.vrm_dithering,
                keys=tp.keys,
                entry_state=digital["entry_state"],
            )
        )
    resolved = render_captures_batched(requests)
    tap_batch_run(len(pending), len({id(r.capture) for r in resolved}))

    # ---- receiver tails: one STFT sweep per (capture, M, window) ------
    envelopes = _batched_envelopes(pending, links, prepared, resolved)
    return [
        _finish_trial(
            tp,
            links[tp.trial_id],
            prepared[tp.digital_id],
            res,
            envelopes[tp.trial_id],
        )
        for tp, res in zip(pending, resolved)
    ]


def _batched_envelopes(
    pending: Sequence[TrialPlan],
    links: Dict[str, object],
    prepared: Dict[str, dict],
    resolved: Sequence[ResolvedCapture],
) -> Dict[str, Envelope]:
    """Acquire every trial's Eq. 1 envelope, grouping trials that share
    (capture, fft_size, window) into one envelope-kernel call.

    Requests with different hops sample overlapping frame-start grids
    (hop 16 contains hop 32 contains hop 64 ...); the kernel transforms
    the *union* of the group's frame positions once and each trial
    reads its own rows and bins back out, bit-identical to its solo
    :func:`repro.core.acquisition.acquire`.
    """
    groups: Dict[tuple, list] = {}
    for tp, res in zip(pending, resolved):
        link = links[tp.trial_id]
        capture = res.capture
        acquisition = link.decoder_config.acquisition_for(
            prepared[tp.digital_id]["nominal"], capture.sample_rate
        )
        _, n_frames = frame_stack(
            capture.samples, acquisition.fft_size, acquisition.hop
        )
        bins = harmonic_bins(capture, link.vrm_frequency_hz, acquisition)
        group_key = (
            res.key or id(capture),
            acquisition.fft_size,
            acquisition.window,
        )
        groups.setdefault(group_key, []).append(
            (tp, capture, acquisition.hop, bins, n_frames)
        )
    envelopes: Dict[str, Envelope] = {}
    for (_, fft_size, window), members in groups.items():
        capture = members[0][1]
        positions = [
            np.arange(n_frames) * hop for _, _, hop, _, n_frames in members
        ]
        union = np.unique(np.concatenate(positions))
        with span(
            "batch.decode",
            {"requests": len(members), "fft_size": fft_size},
        ):
            ys = band_energy(
                [frame_stack(capture.samples, fft_size, 1)[0]],
                get_window(window, fft_size),
                [
                    (np.searchsorted(union, pos), bins)
                    for pos, (_, _, _, bins, _) in zip(positions, members)
                ],
                take=union,
            )
        for y, (tp, _, hop, _, n_frames) in zip(ys, members):
            envelopes[tp.trial_id] = Envelope(
                samples=y,
                frame_rate=capture.sample_rate / hop,
                times=frame_times(
                    0, n_frames, fft_size, hop, capture.sample_rate
                ),
            )
    return envelopes


def _finish_trial(
    tp: TrialPlan,
    link,
    digital: dict,
    res: ResolvedCapture,
    envelope: Envelope,
) -> dict:
    """The per-trial tail: decode, align, and assemble the record."""
    trial = tp.trial
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    rng.bit_generator.state = res.exit_state
    tx_bits = digital["tx_bits"]
    with span(
        "sweep.trial",
        {"trial": key_prefix(tp.trial_id), "label": trial.label},
    ):
        decoder = BatchDecoder(
            link.vrm_frequency_hz,
            expected_bit_period_s=digital["nominal"],
            config=link.decoder_config,
        )
        decode = decoder.decode_envelope(envelope)
        m = align_bits(tx_bits, decode.bits)
    duration_s = digital["activity"].duration
    if duration_s <= 0:
        tr_bps = 0.0
    else:
        tr_bps = link.profile.paper_rate(tx_bits.size / duration_s)
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
            "tr_bps": float(tr_bps),
            "duration_s": float(duration_s),
            "n_bits": int(decode.bits.size),
            "bits_sha": _bits_digest(decode.bits),
            "tx_sha": _bits_digest(tx_bits),
            "rng": rng_digest(rng),
            "threshold": threshold,
            "power_modes": [lo_mode, hi_mode],
        },
        "elapsed_s": round(time.perf_counter() - started, 6),
    }
