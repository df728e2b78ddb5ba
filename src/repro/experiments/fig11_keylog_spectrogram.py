"""Figure 11: PMU emission while typing "can you hear me".

Types the paper's demo sentence and checks the spectrogram-level
signature: one distinguishable activity spike per character (spaces
included) and word grouping recoverable from inter-spike gaps.
"""

from __future__ import annotations

from ..keylog.detector import KeystrokeDetector, match_events
from ..keylog.evaluate import KeylogExperiment
from ..keylog.words import segment_words
from ..params import KEYLOG, SimProfile
from ..systems.laptops import DELL_PRECISION
from .common import ExperimentResult, register

SENTENCE = "can you hear me"


@register("fig11")
def run(
    profile: SimProfile = KEYLOG,
    quick: bool = True,
    seed: int = 0,
) -> ExperimentResult:
    exp = KeylogExperiment(machine=DELL_PRECISION, profile=profile, seed=seed)
    keystrokes, capture = exp.type_and_capture(SENTENCE)
    detector = KeystrokeDetector(
        DELL_PRECISION.vrm_frequency_hz / profile.total_freq_divisor,
        exp.detector_config,
    )
    detection = detector.detect(capture)
    tp, fp, fn = match_events(detection.events, keystrokes)
    seg = segment_words(detection.events)
    true_lengths = [len(w) for w in SENTENCE.split(" ")]
    rows = [
        {"quantity": "characters typed (incl. spaces)", "value": len(SENTENCE)},
        {"quantity": "spikes detected", "value": detection.count},
        {"quantity": "true positives", "value": tp},
        {"quantity": "false positives", "value": fp},
        {"quantity": "missed", "value": fn},
        {"quantity": "true word lengths", "value": str(true_lengths)},
        {"quantity": "recovered word lengths", "value": str(seg.word_lengths)},
    ]
    notes = [
        "paper: each character (including whitespace) produces a "
        "distinguishable spike; word grouping follows from gaps",
    ]
    return ExperimentResult(
        experiment_id="fig11",
        title='Keylogging spectrogram for "can you hear me"',
        rows=rows,
        notes=notes,
    )
