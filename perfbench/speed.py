"""The host's speed, sampled between calls, to scale measured times by.

On a shared host the same work can take half again or twice as long a minute
later: neighbours slow the CPU without taking it away (steal time stays near 0,
CPU time tracks wall time), and the other CPU's speed does not follow this
one's. A fixed reference kernel, timed on the same CPU between a workload's
calls, slows with it. Scaled times are the measured wall time multiplied by
NOMINAL_S / (the kernel's time around it), that is, seconds at the speed at
which the kernel takes NOMINAL_S.

This works where calls are short next to the host's changes of speed: samples
every quarter second follow them. Around a call of many seconds two samples
cannot stand for the whole call, and scaling was seen to widen the spread of
such calls, so a workload of long calls is measured unscaled (Speed(False)).
Set-up rounds, a fraction of a second each, are scaled on every workload.

The kernel mixes what the package spends its time on: interpreted scalar
loops, dict and set updates with small function calls (bound bookkeeping,
exact combinatorics), numpy row operations on a small matrix (the Householder
and QL sweeps), elementwise passes over a stack of small matrices (the batched
Jacobi solve) and a LAPACK solve. It calls nothing of the package, so no change
to the package can speed it up or slow it down.
"""

import time

import numpy as np

clock = time.perf_counter


def _pair_hash(x: int, y: int) -> int:
    return (x * 31 + y) % 1009


class Speed:
    # the kernel's time (least of three runs) on a quiet 2-core x86 host
    # (2.0 GHz): the speed that scaled times are scaled to
    NOMINAL_S = 0.0015
    # sample again once this much time has gone to calls since the last sample
    EVERY_S = 0.25

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        rng = np.random.default_rng(0)
        small = rng.random((12, 12))
        self._small = small + small.T
        self._stack = rng.random((1024, 7, 7))
        mid = rng.random((40, 40))
        self._mid = mid + mid.T
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = clock()
        acc = 0.0
        for i in range(2500):  # interpreted scalar work
            acc += (i % 7) * 0.5 - (i % 3) * 0.25
        table, seen, items = {}, set(), []
        for i in range(400):  # dicts, sets, tuples, calls
            k = _pair_hash(i, i % 13)
            table[k] = table.get(k, 0) + 1
            seen.add((k, i % 5))
            items.append((k, -i))
        items.sort()
        a = self._small.copy()  # row operations on a small matrix
        for _ in range(2):
            for k in range(a.shape[0] - 1):
                a[k + 1:] -= np.outer(a[k + 1:, k] / (abs(a[k, k]) + 1.0), a[k])
        s = self._stack.copy()  # elementwise passes over a stack
        for p in range(3):
            s[:, p, :] = 0.5 * s[:, p, :] + 0.25 * s[:, p + 1, :]
            s[:, p + 1, :] -= 0.25 * s[:, p, :]
        for _ in range(2):  # LAPACK
            np.linalg.eigvalsh(self._mid)
        return clock() - t0

    def sample(self) -> float:
        """The kernel's time now: the least of three runs, so that one
        interrupt does not count as a slow host. NOMINAL_S when disabled."""
        if not self.enabled:
            return self.NOMINAL_S
        self.samples.append(min(self._kernel() for _ in range(3)))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor for times measured between two samples."""
        return self.NOMINAL_S / (0.5 * (before + after))
