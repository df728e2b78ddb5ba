#!/usr/bin/env python
"""Keylogging through the PMU emission (Section V).

A victim types a passphrase into a browser on an otherwise idle laptop;
each keystroke briefly wakes the processor, and the VRM's emission
betrays the timing.  The attacker - behind a wall with a loop antenna -
detects the keystroke timeline, counts characters, and recovers the
word-length structure (the starting point for a dictionary attack).
Finally the same capture is replayed chunk by chunk through the live
detector, which reports each keystroke with its detection latency.

Run:
    python examples/keylogger.py
"""

from repro.chain import paper_tuned_frequency_hz, tuned_frequency_hz
from repro.em import through_wall_scenario
from repro.keylog import (
    KeylogExperiment,
    analyze_timing,
    dictionary_reduction_factor,
    segment_words,
)
from repro.params import KEYLOG
from repro.systems import DELL_PRECISION


def main() -> None:
    machine = DELL_PRECISION
    profile = KEYLOG
    sentence = "correct horse battery staple"

    scenario = through_wall_scenario(
        tuned_frequency_hz(machine, profile),
        physics_frequency_hz=paper_tuned_frequency_hz(machine),
    )
    exp = KeylogExperiment(
        machine=machine, scenario=scenario, profile=profile, seed=3
    )
    result = exp.run(text=sentence)

    print(f"victim typed : {sentence!r} ({len(sentence)} keystrokes)")
    print(f"setup        : {scenario.name} (attacker in the next room)")
    print(
        f"detection    : {result.n_detected} events, "
        f"TPR={result.true_positive_rate:.2f}, "
        f"FPR={result.false_positive_rate:.2f}"
    )

    timeline = result.detection.events
    print("keystroke timeline (s):")
    line = "  "
    for ev in timeline:
        line += f"{ev.start:6.2f}"
    print(line)

    seg = segment_words(timeline)
    true_lengths = [len(w) for w in sentence.split(" ")]
    print(f"true word lengths      : {true_lengths}")
    print(f"recovered word lengths : {seg.word_lengths}")

    timing = analyze_timing(timeline)
    factor = dictionary_reduction_factor(timing, word_length=6)
    print(
        f"timing leak  : {timing.search_space_reduction_bits:.2f} bits "
        f"per digraph -> a 6-letter word's candidate set shrinks ~{factor:,.0f}x"
    )
    print(
        "\nword lengths plus inter-key timing reduce a dictionary attack's\n"
        "search space by orders of magnitude (Section V-B)."
    )

    # Live mode: the attacker watches the stream instead of a recording.
    live = exp.run_streaming(text=sentence, chunk_size=4096)
    print(
        f"\nlive mode    : {len(live.events)} online event(s), detection "
        f"latency mean={live.mean_detection_latency_s * 1e3:.1f} ms "
        f"max={live.max_detection_latency_s * 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
