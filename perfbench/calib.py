"""Machine-speed reference for a shared, noisy host.

On the 2-vCPU VM this benchmark was built on, other tenants slow every
core by up to 2x for seconds to minutes at a time. The guest sees no steal
time and process CPU time stays equal to wall time, so nothing inside a run
can tell a slow phase from slow code, except timing a fixed piece of work.

`kernel_seconds()` times such a piece: a brightness-ordered 8-neighbour
label flood over a fixed speckle surface, written here so that it never
changes with the library. Its mix of interpreter loop and NumPy scalar
access resembles the hottest layers at the seed state. run.py times it
between dataset calls and scales each call's time by REFERENCE_S / kernel
time, so that figures from a slow phase and a quiet one compare.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference machine (2-vCPU Intel Xeon VM) when quiet.
# Changing it rescales every time metric; never change it between runs
# that are compared.
REFERENCE_S = 0.012

_SIDE = 64
_N8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
_SURFACE = np.random.default_rng(20261017).exponential(1.0, size=(_SIDE, _SIDE))


def _flood(vals: np.ndarray) -> int:
    h, w = vals.shape
    db = 10.0 * np.log10(vals / vals.max())
    labels = np.zeros((h, w), dtype=np.int32)
    labels.flat[int(np.argmax(vals))] = 1
    flat = db.ravel()
    omega = np.flatnonzero(flat > -20.0)
    next_label = 2
    for q in omega[np.argsort(-flat[omega], kind="stable")]:
        y, x = divmod(int(q), w)
        if labels[y, x]:
            continue
        best = 0
        for dy, dx in _N8:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w:
                lab = labels[ny, nx]
                if lab and (best == 0 or lab < best):
                    best = lab
        if best:
            labels[y, x] = best
        elif db[y, x] > -3.0:
            labels[y, x] = next_label
            next_label += 1
    return next_label


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _flood(_SURFACE)
    return time.perf_counter() - t0
