"""A reference kernel, timed every few tenths of a second, that tracks how
fast the host runs while the benchmark measures.

The benchmark's host changes speed by up to 1.6x in phases that last from
seconds to minutes, which moves every timing of a run together. The kernel
below does a fixed mix of the work veriq does (Python float formatting and
parsing as in CSV I/O, an EM iteration on a few thousand points, and sorting
and elementwise maths as in ROC), and uses no veriq code, so a change to
the program cannot move it.

While a ``Gauge`` runs, a real-time interval timer runs the kernel in a
signal handler every ``PERIOD`` seconds, in the benchmark's own thread, so
it samples the host's speed during an operation without a second process.
``Gauge.interval`` gives an interval's seconds without the kernel's time,
and the same seconds in reference seconds: the time it would take on a host
where the kernel takes ``REF_SECONDS``. Reference seconds follow the
program's own cost, while the host's drift cancels out to the degree that
it slows the kernel and the program alike.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

PERIOD = 0.15

_rng = np.random.default_rng(0)
_TEXT = ",".join(repr(v) for v in _rng.standard_normal(1500).tolist())
_MID = _rng.standard_normal(20000)
_TINY = _rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
_VEC = _rng.standard_normal(2)
_POINTS = _rng.standard_normal((3000, 4))
_COV = np.cov(_POINTS.T) + 0.1 * np.eye(4)
_SHIFTS = (0.0, 0.3, -0.3)


def _text() -> float:
    """CSV I/O: parse and format floats."""
    total = sum(float(v) for v in _TEXT.split(","))
    return total + len(",".join(repr(v) for v in _MID[:1500].tolist()))


def _tiny() -> float:
    """Per-query work: many numpy calls on 2x2 arrays."""
    total = 0.0
    for _ in range(150):
        solved = np.linalg.solve(_TINY, _VEC)
        total += float(np.exp(-0.5 * solved @ solved))
    return total


def _em() -> float:
    """One EM iteration: 3,000 4-d points, three components."""
    chol = np.linalg.cholesky(_COV)
    log_joint = np.empty((_POINTS.shape[0], len(_SHIFTS)))
    for j, shift in enumerate(_SHIFTS):
        solved = solve_triangular(chol, (_POINTS - shift).T, lower=True)
        log_joint[:, j] = -0.5 * np.sum(solved * solved, axis=0)
    resp = np.exp(log_joint - logsumexp(log_joint, axis=1)[:, None])
    means = (resp.T @ _POINTS) / resp.sum(axis=0)[:, None]
    total = 0.0
    for j in range(len(_SHIFTS)):
        diff = _POINTS - means[j]
        total += float(((resp[:, j][:, None] * diff).T @ diff).trace())
    return total


def _vector() -> float:
    """Vector work as in ROC: sort and elementwise maths."""
    total = 0.0
    for _ in range(3):
        total += float(np.sort(_MID)[100]) + float(np.log1p(np.exp(-np.abs(_MID))).sum())
    return total


# The kernel's parts and, for each, its reference time: its median seconds
# when run alone on a 2-CPU virtual machine (Python 3.11, numpy 2.4,
# OpenBLAS, one thread). Any fixed values would do, as they only set the
# unit. Inside a run the parts find their data evicted by the program and
# take longer, so on that machine a pass's reference seconds come out at
# about 0.65 of its raw seconds.
PARTS = {"text": (_text, 0.0016), "tiny": (_tiny, 0.0012),
         "em": (_em, 0.0015), "vector": (_vector, 0.0005)}


def kernel() -> dict[str, float]:
    """Run every part once; the seconds each took."""
    seconds = {}
    for name, (part, _) in PARTS.items():
        start = perf_counter()
        part()
        seconds[name] = perf_counter() - start
    return seconds


class Gauge:
    """Samples the kernel's time every ``PERIOD`` seconds between ``start``
    and ``stop``. ``weights`` gives each part's share of the host's speed
    index; it should follow the share of that kind of work in the program."""

    def __init__(self, weights: dict[str, float]):
        total = sum(weights.values())
        self.weights = {name: weights.get(name, 0.0) / total for name in PARTS}
        self.ticks: list[tuple[float, float, dict]] = []  # (start, seconds, parts)
        self._previous = None

    def start(self) -> None:
        kernel()  # warm up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        parts = kernel()
        self.ticks.append((start, perf_counter() - start, parts))

    def slowdown(self, parts: list[dict]) -> float:
        """The host's slowdown over some ticks against the reference times:
        per part the mean time over the reference time, weighted."""
        return sum(
            weight * sum(p[name] for p in parts) / len(parts) / PARTS[name][1]
            for name, weight in self.weights.items()
        )

    def interval(self, start: float, end: float) -> tuple[float, float, dict]:
        """The seconds between ``start`` and ``end`` without the kernel's
        own time; the same in reference seconds; and the mean time of each
        part. The host's speed comes from the ticks in the interval and the
        ones just before and after it."""
        inside = sum(s for t, s, _ in self.ticks if start <= t < end)
        near = [p for t, _, p in self.ticks if start - PERIOD <= t < end + PERIOD]
        seconds = end - start - inside
        if not near:  # a long call into C held the timer's signal back
            near = [min(self.ticks, key=lambda tick: abs(tick[0] - start))[2]]
        means = {name: sum(p[name] for p in near) / len(near) for name in PARTS}
        return seconds, seconds / self.slowdown(near), means
