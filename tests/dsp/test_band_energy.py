"""The one Eq. 1 envelope kernel against the full-magnitude STFT oracle.

Every receiver - batch ``acquire``, the keystroke detector, the
trial-batched sweep lane, the streaming receivers and the fleet tick -
reduces frames to ``Y = sum_{k in bins} |F[k]|`` through
:func:`repro.dsp.stft.band_energy`.  The property below drives the
kernel the way each of those callers does and requires, for every
reader, the exact bytes of ``stft(x).magnitudes[:, bins].sum(axis=1)``:
rows split into any number of parts and readers, union-of-positions
``take`` over several hops, groups of streams fed in any chunking, and
any block size.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.stft import band_energy, frame_stack, stft
from repro.dsp.windows import get_window
from repro.stream.demod import StreamingSTFT, advance_envelopes

FS = 1e4

#: The module itself: ``repro.dsp.stft`` as an attribute is the function.
stft_mod = importlib.import_module("repro.dsp.stft")


def _input(seed, n, complex_input):
    rng = np.random.default_rng(seed)
    if complex_input:
        return (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(
            np.complex64
        )
    return rng.normal(size=n)


def _cuts(draw, n):
    """Sorted cut points splitting ``range(n)`` into contiguous parts."""
    return sorted(draw(st.lists(st.integers(0, n), max_size=3)))


def _bins(draw, n_bins):
    return np.array(
        draw(st.lists(st.integers(0, n_bins - 1), min_size=1, max_size=6)),
        dtype=int,
    )


def _oracle(x, fft_size, hop, window, bins):
    spec = stft(x, FS, fft_size=fft_size, hop=hop, window=window)
    return spec.magnitudes[:, bins].sum(axis=1)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_every_path_matches_the_stft_oracle(data):
    draw = data.draw
    complex_input = draw(st.booleans())
    fft_size = draw(st.integers(2, 96))
    hop = draw(st.integers(1, 2 * fft_size))
    window = draw(st.sampled_from(["hann", "rect"]))
    x = _input(
        draw(st.integers(0, 2**16)),
        draw(st.integers(fft_size, fft_size + 600)),
        complex_input,
    )
    n_bins = fft_size if complex_input else fft_size // 2 + 1
    win = get_window(window, fft_size)
    block_rows = draw(st.sampled_from([1, 2, 3, 7, 1 << 20]))
    with mock.patch.object(
        stft_mod, "BLOCK_BYTES", block_rows * fft_size * 16
    ):
        # Batch and fleet shape: the frame rows split into N parts,
        # read back by several readers with their own rows and bins.
        frames, n_frames = frame_stack(x, fft_size, hop)
        edges = [0, *_cuts(draw, n_frames), n_frames]
        parts = [frames[lo:hi] for lo, hi in zip(edges, edges[1:])]
        readers = []
        for _ in range(draw(st.integers(1, 3))):
            pick = np.random.default_rng(draw(st.integers(0, 2**16)))
            density = draw(st.sampled_from([0.0, 0.3, 1.0]))
            rows = np.flatnonzero(pick.random(n_frames) < density)
            readers.append((rows, _bins(draw, n_bins)))
        got = band_energy(parts, win, readers)
        for (rows, bins), y in zip(readers, got):
            want = _oracle(x, fft_size, hop, window, bins)[rows]
            assert y.tobytes() == want.tobytes()

        # Trial-batch shape: the union of two hops' frame positions,
        # each hop's reader taking its own rows out of the union.
        hop2 = draw(st.integers(1, 2 * fft_size))
        grids = [
            np.arange(frame_stack(x, fft_size, h)[1]) * h for h in (hop, hop2)
        ]
        union = np.unique(np.concatenate(grids))
        bin_sets = [_bins(draw, n_bins), _bins(draw, n_bins)]
        got = band_energy(
            [frame_stack(x, fft_size, 1)[0]],
            win,
            [(np.searchsorted(union, g), b) for g, b in zip(grids, bin_sets)],
            take=union,
        )
        for h, bins, y in zip((hop, hop2), bin_sets, got):
            want = _oracle(x, fft_size, h, window, bins)
            assert y.tobytes() == want.tobytes()

        # Stream shape: k streams of the same signal, each chunked its
        # own way, advanced together as one group (k = 1 is a lone
        # receiver's push).
        streams = []
        for _ in range(draw(st.integers(1, 3))):
            sizes = draw(st.lists(st.integers(1, 300), min_size=1,
                                  max_size=4))
            pieces, pos, i = [], 0, 0
            while pos < x.size:
                pieces.append(x[pos : pos + sizes[i % len(sizes)]])
                pos += sizes[i % len(sizes)]
                i += 1
            sstft = StreamingSTFT(
                FS, fft_size, hop, window, complex_input=complex_input
            )
            streams.append((sstft, _bins(draw, n_bins), pieces, []))
        for step in range(max(len(s[2]) for s in streams)):
            live = [s for s in streams if step < len(s[2])]
            outs = advance_envelopes(
                [(sstft, bins, pieces[step]) for sstft, bins, pieces, _ in live]
            )
            for (_, _, _, ys), (y, _) in zip(live, outs):
                ys.append(y)
        for _, bins, _, ys in streams:
            want = _oracle(x, fft_size, hop, window, bins)
            assert np.concatenate(ys).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "complex_input,bins",
    [(True, [300]), (True, [-1]), (False, [129]), (False, [-3, 4])],
)
def test_out_of_range_bins_raise(complex_input, bins):
    # fft_size 256: 256 complex bins, 129 real ones.  The unshifted
    # column remap would turn an out-of-range bin into a valid but
    # wrong column, so the kernel must refuse it.
    x = _input(0, 2000, complex_input)
    frames, n_frames = frame_stack(x, 256, 32)
    with pytest.raises(ValueError, match="bins must lie in"):
        band_energy(
            [frames], get_window("hann", 256), [(np.arange(n_frames), bins)]
        )
