"""Signal-processing substrate: STFT and the Eq. 1 envelope kernel,
windows, the edge kernel, detection and terminal rendering.

Callers import from the submodules (``repro.dsp.stft``,
``repro.dsp.filters``, ...); the package re-exports nothing, so
``repro.dsp.stft`` is always the module, never the function.
"""
