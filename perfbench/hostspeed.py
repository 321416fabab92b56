"""Host-speed calibration: the end-to-end times are reported at a fixed
reference speed of the host.

On a shared host the same code runs up to 2x slower for stretches of a
second to minutes, while other tenants load the caches and cores it shares.
The benchmark therefore runs fixed calibration kernels, its own code and
nothing of `charfield`, right after every op and, on a timer, every
`period_s` inside long ops.  A sample's slowdown is the kernel's time over
its fixed reference time, and an op's time is divided by the mean slowdown
of the samples around and inside it.  A slow stretch of the host, which
slows the kernel as much as the op, cancels; a change of the library, which
the kernels never call, shows in full.  The kernels imitate the work of the
workloads: pure-Python tuple-matrix arithmetic and hashing (`python`), and
that plus the int64 array products of the lex scan (`python+numpy`).  Short
ops are pure Python in every workload, so the kernel after each op is
`python`; powmap-grid's long ops are lex scans, so its kernel inside ops is
`python+numpy`.  The reference times are about the kernels' times on an
otherwise idle 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, so the scaled
times read as milliseconds on that machine.  The time spent in the kernel
inside an op is taken out of the op's own time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

_A = ((1, 2, 3), (3, 5, 7), (2, 0, 1))
_P = 13
PY_ROUNDS = 24
MIXED_PY_REPEATS = 5


def python_kernel() -> int:
    """Tuple-matrix products mod 13 and a dict keyed by the matrices, as in
    the oracle's class census and orbit walk."""
    m, seen = _A, {}
    for i in range(PY_ROUNDS):
        m = tuple(tuple(sum(x * y for x, y in zip(row, col)) % _P for col in zip(*_A))
                  for row in m)
        seen[m] = seen.get(m, i)
    return len(seen)


_ROWS, _C, _N = 800, 6, 4
_rng = np.random.default_rng(20050514)
_DIGITS = _rng.integers(0, 5, size=(_ROWS, _C), dtype=np.int64)
_BASIS = _rng.integers(0, 5, size=(_C, _N * _N), dtype=np.int64)
_FORM = np.rot90(np.diag([1, 1, -1, -1])).astype(np.int64)


def numpy_kernel() -> int:
    """One small chunk of the lex scan: coefficient vectors times a basis,
    Gram matrices against a form, compared entrywise."""
    X = ((_DIGITS @ _BASIS) % 5).reshape(-1, _N, _N)
    gram = np.einsum("nji,jk,nkl->nil", X, _FORM, X) % 5
    return int((gram == _FORM % 5).all(axis=(1, 2)).sum())


def mixed_kernel() -> int:
    return sum(python_kernel() for _ in range(MIXED_PY_REPEATS)) + numpy_kernel()


# name -> (kernel, reference seconds, sampling period inside an op in seconds)
KERNELS = {
    "python": (python_kernel, 0.31e-3, 0.05),
    "python+numpy": (mixed_kernel, 3.5e-3, 0.1),
}


class HostSpeed:
    """Calibration samples around and inside each op of a closed loop.

    The `around` kernel runs after each op (and once before the first); the
    `inside` kernel runs on the timer while an op is in progress.  Each
    sample is kept as a slowdown: kernel time over the kernel's reference
    time.  start() / stop() bracket the loop; begin_op() / end_op() bracket
    each op.  end_op() returns the kernel time that fell inside the op (to
    be taken out of its latency) and the mean slowdown of the samples that
    belong to the op: the one after the previous op, those inside it, the
    one after it."""

    def __init__(self, around: str, inside: str | None = None):
        self.around, self.inside = around, inside or around
        self.period_s = KERNELS[self.inside][2]
        self.samples: dict[str, list[float]] = {self.around: [], self.inside: []}
        self._in_op = False
        self._inside: list[float] = []
        self._paused = 0.0
        self._last = None
        self._old_handler = None

    def sample(self, name: str) -> float:
        kernel, reference_s, _ = KERNELS[name]
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.samples[name].append(dt)
        return dt / reference_s

    def _on_alarm(self, signum, frame) -> None:
        if not self._in_op:
            return
        t0 = perf_counter()
        self._inside.append(self.sample(self.inside))
        self._paused += perf_counter() - t0

    def start(self) -> None:
        for name in {self.around, self.inside}:  # warm the kernels' code and arrays
            for _ in range(3):
                KERNELS[name][0]()
        self._last = self.sample(self.around)
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def begin_op(self) -> None:
        self._inside, self._paused = [], 0.0
        self._in_op = True

    def end_op(self) -> tuple[float, float]:
        self._in_op = False
        after = self.sample(self.around)
        slowdowns = [self._last, *self._inside, after]
        self._last = after
        return self._paused, statistics.fmean(slowdowns)

    @staticmethod
    def scale(seconds: float, slowdown: float) -> float:
        """`seconds` measured at the given slowdown, at reference speed."""
        return seconds / slowdown
