"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants, the same call can run 30 % slower in one
minute than in the next, with no change of code: the machine flips between a
fast and a slow mode every few seconds.  A fixed kernel, timed right before
and right after each timed unit of work, measures how fast the machine is at
that moment; scaling by it turns wall seconds into *nominal* seconds, the
time the call would take on this machine type running at its nominal speed.
The kernel mixes what the program spends its time on: small NumPy array
operations over a few thousand circles and a Python loop over the hits.  It
lives here, not in the program, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of one kernel pass on the machine the benchmark was defined
#: on (shared 2-CPU Intel Xeon host, Python 3.11, NumPy 2.4).  Any constant would
#: do: it only scales nominal seconds to about wall seconds on that machine.
NOMINAL_KERNEL_S = 0.054

_rng = np.random.default_rng(20221)
_CX = _rng.uniform(0.0, 1e4, 3000)
_CY = _rng.uniform(0.0, 1e4, 3000)
_R2 = _rng.uniform(1e3, 1e5, 3000)
_PATH = _rng.uniform(0.0, 1e4, (400, 2))


def _kernel() -> int:
    hits = 0
    for k in range(len(_PATH) - 1):
        x0, y0 = _PATH[k]
        x1, y1 = _PATH[k + 1]
        dx, dy = x1 - x0, y1 - y0
        length = (dx * dx + dy * dy) ** 0.5
        ux, uy = dx / length, dy / length
        fx = x0 - _CX
        fy = y0 - _CY
        half_b = fx * ux + fy * uy
        disc = half_b * half_b - (fx * fx + fy * fy - _R2)
        has = disc > 0.0
        root = np.sqrt(np.where(has, disc, 0.0))
        s1 = -half_b - root
        for i in np.nonzero(has & (s1 > 0.0) & (s1 <= length))[0]:
            events = [(float(s1[i]), 0), (float(-half_b[i] + root[i]), 3)]
            events.sort()
            hits += len(events)
    return hits


def kernel_s(repeats: int) -> float:
    """Wall seconds per pass of the kernel, over ``repeats`` passes."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - t0) / repeats


def nominal(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """``wall_s`` in nominal seconds, from the kernel times around it."""
    return wall_s * NOMINAL_KERNEL_S / (0.5 * (kernel_before_s + kernel_after_s))


class Calibrated:
    """Times the kernel before the first timed unit and after each one."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.kernel_samples_s = [kernel_s(repeats)]

    def sample(self) -> float:
        self.kernel_samples_s.append(kernel_s(self.repeats))
        return self.kernel_samples_s[-1]

    def __call__(self, fn, *args, **kwargs) -> dict:
        """``fn(...)``, a dict with ``wall_s``, plus its ``nominal_s``."""
        before = self.kernel_samples_s[-1]
        out = fn(*args, **kwargs)
        out["nominal_s"] = nominal(out["wall_s"], before, self.sample())
        return out
