"""Terminal rendering of signal lanes.

The paper communicates its core observations through spectrograms
(Figures 2 and 11).  :func:`ascii_lane` renders one band's energy over
time as ASCII so examples can show it in a terminal and in logged
reports, without any plotting dependency.
"""

from __future__ import annotations

import numpy as np

#: Intensity ramp used for all renderings (dark -> bright).
LEVELS = " .:-=+*#%@"


def ascii_lane(
    values: np.ndarray,
    width: int = 72,
    normalise="max",
) -> str:
    """One signal lane as a width-limited intensity string.

    ``normalise``: ``"max"`` (default) scales by the lane maximum so a
    constant-high lane renders as a solid wall; ``"minmax"`` stretches
    to full range (amplifies texture); ``False`` expects values already
    in [0, 1].
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return " " * width
    blocks = np.array_split(values, width)
    levels = np.array([b.mean() if b.size else 0.0 for b in blocks])
    if normalise == "minmax" or normalise is True:
        lo, hi = levels.min(), levels.max()
        levels = (levels - lo) / max(hi - lo, 1e-12)
    elif normalise == "max":
        levels = levels / max(levels.max(), 1e-12)
    levels = np.clip(levels, 0.0, 1.0)
    return "".join(LEVELS[int(v * (len(LEVELS) - 1))] for v in levels)
