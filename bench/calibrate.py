"""Host-speed calibration for the memsearch benchmark.

The shared virtual machines this benchmark runs on flip between a fast
and a slow mode about 2x apart, several times a second, and the share of
slow time drifts over minutes, in wall and CPU time alike; runs a few
minutes apart then disagree by more than any useful bound.  So every timed
call is bracketed by calibration gaps, runs of a fixed reference kernel, and
is reported in units of that kernel: ``wall / mean kernel time`` over
gaps before and after it, scaled by the kernel's nominal duration
``NOMINAL_S`` back to seconds.  A change to memsearch moves the ratio; a
slower host moves call and kernel together and cancels out.  A gap lasts
``GAP_SHARE`` of the call it follows, so a long call's speed is estimated
from many mode flips, not one instant.  The vCPUs change mode
independently, so the kernel runs in as many threads as the call did
(the runner's ``jobs``): it then spreads over the vCPUs as the call did.

The kernel does the kind of work memsearch does (dicts, string formatting,
hashing, JSON, sorting, small numpy vectors) on fixed inputs, and uses
nothing from memsearch, so no change to the program can change it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# The kernel's typical duration on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11; it only scales reported values into seconds and never changes.
NOMINAL_S = 0.004
# Kernel runs in one calibration block; the block reports their mean.
BLOCK_REPEATS = 6
# A gap after a call of t seconds runs blocks for GAP_SHARE * t (at least one).
GAP_SHARE = 0.15

_WORDS = [f"w{i:03d}x" for i in range(97)]
_VECTORS = np.stack([np.cos(np.arange(64) * (k + 1) / 7.0) for k in range(24)])


def kernel() -> int:
    """Fixed work resembling memsearch's; returns a checksum so none is skipped."""
    table: dict[str, str] = {}
    for i in range(1500):
        key = f"{_WORDS[i % 97]} {_WORDS[(i * 7) % 97]} {i}"
        table[key] = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
    text = json.dumps(table, sort_keys=True)
    back = json.loads(text)
    ordered = sorted(back.items(), key=lambda kv: kv[1])
    acc = 0.0
    for k in range(len(_VECTORS)):
        v = _VECTORS[k]
        sims = _VECTORS @ v / (np.linalg.norm(_VECTORS, axis=1) * np.linalg.norm(v) + 1e-9)
        acc += float(sims.max())
    return len(ordered) + len(text) + int(acc * 1000)


def block(pool: ThreadPoolExecutor | None = None) -> float:
    """Wall time per kernel run of BLOCK_REPEATS runs, in seconds.

    With a pool the runs are spread over its threads, as the runner spreads
    tasks with jobs > 1; without, they run in this thread, as with jobs=1."""
    t0 = perf_counter()
    if pool is None:
        for _ in range(BLOCK_REPEATS):
            kernel()
    else:
        list(pool.map(lambda _: kernel(), range(BLOCK_REPEATS)))
    return (perf_counter() - t0) / BLOCK_REPEATS


def gap(after_wall: float, jobs: int = 1) -> list[float]:
    """Calibration blocks in `jobs` threads for GAP_SHARE of after_wall seconds, at least one."""
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        blocks = []
        t0 = perf_counter()
        while not blocks or perf_counter() - t0 < GAP_SHARE * after_wall:
            blocks.append(block(pool))
        return blocks
    finally:
        if pool is not None:
            pool.shutdown(wait=True)


def scaled(wall: float, blocks: list[float]) -> float:
    """A wall time in nominal seconds, given the calibration blocks around it."""
    return wall * NOMINAL_S / statistics.mean(blocks)
