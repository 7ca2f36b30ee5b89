"""How fast the host runs while the workload runs, so that runs at different times compare.

The benchmark gets a few cores of a shared host whose speed drifts with
what else runs on it: the same repeat of a workload took 1.7 times as long
for seconds or minutes at a stretch, then went back. Medians within a run
cannot remove a drift that outlasts the run, and a probe between repeats
misses the changes within one.

So ``Sampler`` runs a short calibration slice from a ``SIGALRM`` timer
every ``INTERVAL_S`` while the workload runs. The slice does the kind of
work metashop does (walks over a tree of small arrays, many tiny array
operations) but calls none of its code, so no change to metashop moves
it. ``now`` is ``time.perf_counter`` minus the time spent in slices, so
every interval the benchmark measures with it leaves them out. The scale
of a stretch of work is ``REFERENCE_SLICE_S`` over the trimmed mean time
of the slices run during it: multiplied by it, the stretch's time is the
time it would have taken on a host where a slice takes
``REFERENCE_SLICE_S``. ``run.py`` scales each phase of a repeat by the
slices run during it, or nearest to it when it is too short to hold
enough, and the repeat's total by all of its slices.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# A slice's time on the reference host: about its time on a quiet 2-vCPU
# x86_64 host with Python 3.11 and numpy 2.4 at one BLAS thread.
REFERENCE_SLICE_S = 0.0005
# share of the slowest and of the fastest slices left out of the mean
TRIM = 0.1
MIN_SLICES = 25

# A small parameter tree, walked the way a model's parameters are, and
# two short vectors for many tiny array operations. Of the calibration
# loops tried (dict and tuple lookups, large-dict lookups, streaming over a
# 16 MB array, sorting tuples, stacking small arrays, a pure-Python
# arithmetic loop), these two slowed down in step with the workloads.
_TREE = {
    "encoder": {"w": [np.ones((8, 8)) for _ in range(4)], "b": (np.zeros(8), np.zeros(8))},
    "head": [np.ones(4) for _ in range(6)],
}
_A = np.linspace(0.0, 1.0, 8)
_B = np.linspace(1.0, 2.0, 8)


def _tree_map(fn, tree):
    if isinstance(tree, dict):
        return {k: _tree_map(fn, v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_tree_map(fn, v) for v in tree)
    return fn(tree)


def _slice() -> None:
    tree = _TREE
    for _ in range(12):
        tree = _tree_map(lambda a: a * 0.5, tree)
    a = _A
    for _ in range(80):
        a = np.add(a, _B) * 0.5


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut : len(values) - cut])


class Sampler:
    """Calibration slices on a timer, and the clock that leaves them out."""

    def __init__(self) -> None:
        self.in_slices = 0.0
        self.slices: list[float] = []  # duration of every slice, in s
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.in_slices

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice()
        took = time.perf_counter() - start
        self.slices.append(took)
        self.in_slices += took

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.slices)

    def scale(self, ranges: list[tuple[int, int]]) -> float:
        """Reference seconds per second of ``now`` over the slices in ``ranges``.

        ``ranges`` holds ``(mark, mark)`` pairs taken around stretches of
        work. When they hold fewer than ``MIN_SLICES`` slices, too few for a
        steady mean, the ``MIN_SLICES`` slices nearest to them count instead.
        """
        taken = [d for first, end in ranges for d in self.slices[first:end]]
        if len(taken) < MIN_SLICES:
            lo, hi = min(f for f, _ in ranges), max(e for _, e in ranges)
            short = max(MIN_SLICES - (hi - lo), 0)
            lo, hi = lo - (short + 1) // 2, hi + short // 2
            if lo < 0:
                lo, hi = 0, hi - lo
            if hi > len(self.slices):
                lo, hi = max(lo - (hi - len(self.slices)), 0), len(self.slices)
            taken = self.slices[lo:hi]
        return REFERENCE_SLICE_S / trimmed_mean(taken) if taken else 1.0


SAMPLER = Sampler()
now = SAMPLER.now
