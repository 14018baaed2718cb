"""Host-speed correction: times scaled to a reference speed of the host.

On a shared host the same code runs up to about 1.6 times slower in some
stretches than in others (each virtual CPU has its own slow and fast
phases, lasting from seconds to minutes), so raw times of one workload
spread by 20-40% between invocations. ``SpeedSampler`` times a short fixed
probe at regular intervals of a block, in the block's own process and on
its CPU: the mean probe time over the block is the host's speed while the
block ran. A block's time scaled by ``PROBE_S`` over that mean is its time
at the host speed at which the probe takes ``PROBE_S``.

The probe is a mix like the program's (a small bounded least-squares fit,
a kernel matrix and its Cholesky factor, an interpreted loop) and does not
touch batlife, so a change to the program cannot change it. The time
spent in the probes is taken out of the block's wall and CPU time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor
from scipy.optimize import least_squares

# About the probe's time in a fast phase of a two-core x86-64 Xeon
# container (Python 3.11, numpy 2.4, one OpenBLAS thread; 4.7-9 ms over
# its phases): the speed the scaled times refer to.
PROBE_S = 0.005
INTERVAL_S = 0.2

_X = np.random.default_rng(20230813).standard_normal((32, 3))
_K = _X @ _X.T + 32.0 * np.eye(32)
_T = np.linspace(0.0, 1.0, 200)
_V = 0.3 * np.exp(-_T / 0.2) + 0.1 * np.exp(-_T / 0.7)


def _residual(p):
    return p[0] * np.exp(-_T / p[1]) + p[2] * np.exp(-_T / p[3]) - _V


def _probe() -> float:
    """A bounded two-exponential least-squares fit (as an ECM fit), a
    kernel matrix and its Cholesky factor (as a GP), an interpreted loop."""
    fit = least_squares(_residual, [0.2, 0.3, 0.2, 0.5],
                        bounds=([0.0, 0.01, 0.0, 0.01], [1.0, 5.0, 1.0, 5.0]))
    total = float(fit.cost)
    for _ in range(8):
        d = ((_X[:, None, :] - _X[None, :, :]) ** 2).sum(-1)
        total += float(cho_factor(np.exp(-0.5 * d) + _K, lower=True)[0][-1, -1])
    for i in range(2000):
        total += (i % 7) * 0.5
    return total


class SpeedSampler:
    """Context manager: time the block and sample the host speed during it.

    After the block, ``wall_s`` and ``cpu_s`` are the block's times without
    the probes, ``probes`` the probe times (one at each end and one every
    ``INTERVAL_S`` in between), and ``scale`` the factor that brings a time
    of the block to the reference speed.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.wall_s = self.cpu_s = 0.0
        self._spent_wall = self._spent_cpu = 0.0

    def _sample(self, *_signal) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        _probe()
        wall = time.perf_counter() - wall
        self.probes.append(wall)
        self._spent_wall += wall
        self._spent_cpu += time.process_time() - cpu

    def __enter__(self):
        _probe()                                  # warm caches and lazy imports
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        self.wall_s = time.perf_counter() - self._wall - self._spent_wall
        self.cpu_s = time.process_time() - self._cpu - self._spent_cpu
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def scale(self) -> float:
        return PROBE_S / statistics.fmean(self.probes)
