"""A probe of the machine's speed, taken while a workload runs.

On a shared host the speed of one core drifts by 25 % to 50 % within
seconds and minutes, with the load of other tenants, in wall and CPU time
alike.  A child's wall time then measures the host as much as the program.
The probe times three fixed snippets of pure Python that do not touch trq:
Fraction products summed in a dict (the coefficient arithmetic of trq),
big-integer products with gcd (the arithmetic under p2_gcd) and a hashing
walk over an expression tree (the shape of operator rewriting).  A SIGALRM
handler takes a sample every PERIOD_S seconds of the timed part, so each
sample stands for an equal slice of wall time.  The geometric mean of the
three snippets' times, smoothed by a running median over WINDOW samples,
gives the host's speed in each slice, and

    wall_s = (wall - time spent in the probe) * REF_S / probe_s

with probe_s the harmonic mean of the smoothed samples, is the wall time
at a fixed reference speed.  A change to trq moves wall_s as it moves the
raw wall time; a slower host moves both the wall time and probe_s, and
cancels.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
WINDOW = 3  # samples in the running median; the speed changes within a second
WARMUP = 5  # first samples run cold and are dropped
BURST = 15  # samples taken at once, to rescale a set-up time
# probe_s of a 2-core Intel Xeon virtual machine, Python 3.11.7, at its
# usual speed; only fixes the scale of the rescaled times
REF_S = 4.0e-4

_FRACS = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
_N1 = 3**200 + 1
_N2 = 5**150 + 7
_MOD = 3 * _N1 + 11


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op: str, kids: tuple) -> None:
        self.op = op
        self.kids = kids


def _tree(depth: int):
    if depth == 0:
        return ("x", depth)
    return _Node("add" if depth % 2 else "mul", (_tree(depth - 1), _tree(depth - 1)))


_TREE = _tree(7)


def _fractions() -> None:
    acc = {}
    for i, x in enumerate(_FRACS):
        for j, y in enumerate(_FRACS):
            k = (i + j) % 7
            acc[k] = acc.get(k, 0) + x * y


def _bigints() -> None:
    x = _N1
    for k in range(60):
        x = (x * _N2 + k) % _MOD
        math.gcd(x, _N2)


def _walk(node, memo: dict) -> int:
    if isinstance(node, tuple):
        return hash(node)
    h = memo.get(id(node))
    if h is None:
        h = hash((node.op, tuple(_walk(k, memo) for k in node.kids)))
        memo[id(node)] = h
    return h


def _tree_walk() -> None:
    _walk(_TREE, {})
    _walk(_TREE, {})


_SNIPPETS = (_fractions, _bigints, _tree_walk)


class SpeedProbe:
    """Times the snippets; `spent_s` is the time the probe took in all."""

    def __init__(self) -> None:
        self.reset()
        for _ in range(WARMUP):
            self.sample()
        self.reset()

    def reset(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self, *_args) -> None:
        log_sum = 0.0
        for snippet in _SNIPPETS:
            t0 = time.perf_counter()
            snippet()
            dt = time.perf_counter() - t0
            log_sum += math.log(dt)
            self.spent_s += dt
        self.samples.append(math.exp(log_sum / len(_SNIPPETS)))

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def probe_s(self) -> float:
        """The probe's time over the sampled interval, smoothed."""
        xs, half = self.samples, WINDOW // 2
        smooth = [statistics.median(xs[max(0, i - half) : i + half + 1]) for i in range(len(xs))]
        return statistics.harmonic_mean(smooth)
