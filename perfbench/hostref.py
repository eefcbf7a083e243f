"""Host-speed reference: a fixed pure-Python kernel timed during each op.

The reference machine is a VM on a shared host whose speed moves all
the time: the same fixed loop takes anywhere from 0.6x to 1.2x its
usual time from one tenth of a second to the next, and the average
moves between regimes that last from tens of seconds to many minutes.
Raw host seconds therefore spread from run to run by more than any
regression worth catching.

The benchmark measures the host's speed while it measures the program.
During every timed region a :class:`Sampler` interrupts the main
process every :data:`PERIOD_S` seconds and times one call of
:func:`_kernel` in thread CPU time; the wall time the sample took is
taken out of the region's time.  The region's host seconds are then
rescaled to the host speed at which the kernel takes :data:`NOMINAL_S`::

    norm_s = net_s * NOMINAL_S / mean(kernel CPU seconds during the region)

CPU time measures how fast a core runs the kernel, not how long the
kernel waited for a core: in ``campaign`` the main process samples
while two shard processes keep both cores busy.

The kernel imports nothing from the program, so no program change can
move it.  It mixes the operations the program's interpreter-bound code
spends its time on (method calls, attribute and dict access, list
traffic, integer bit arithmetic, small tuples), so it slows down with
the host the way the program does.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, List

#: about the CPU seconds of one :func:`_kernel` call on the reference
#: machine (2-vCPU Intel Xeon VM, Python 3.11); it sets only the scale
#: of normalised seconds, never their ratios
NOMINAL_S = 0.006
#: seconds between two kernel samples inside a timed region
PERIOD_S = 0.1
#: kernel size: about NOMINAL_S seconds per call
_ROUNDS = 1000
#: fewest samples a region's speed is taken from; a region too short
#: to collect them is topped up right after it ends
MIN_SAMPLES = 5


class _Lane:
    __slots__ = ("value", "mask", "hits")

    def __init__(self, value: int, mask: int):
        self.value = value
        self.mask = mask
        self.hits = 0

    def step(self, operand: int) -> int:
        self.value = ((self.value << 1) ^ operand) & self.mask
        self.hits += self.value & 1
        return self.value


def _kernel(rounds: int) -> int:
    lanes = [_Lane(index, 0xFFFFFFFF) for index in range(32)]
    table = {}
    queue = []
    total = 0
    for round_ in range(rounds):
        key = (round_ & 63, round_ % 7)
        table[key] = table.get(key, 0) + 1
        for lane in lanes[: 8 + (round_ & 7)]:
            total ^= lane.step(round_)
        queue.append(key)
        if len(queue) > 16:
            total += queue.pop(0)[1]
        total += bin(total & 0xFFFF).count("1")
    return total + len(table)


def kernel_seconds() -> float:
    """CPU seconds of one kernel call, timed now."""
    start = time.thread_time()
    _kernel(_ROUNDS)
    return time.thread_time() - start


def sample(calls: int) -> List[float]:
    """``calls`` kernel timings back to back."""
    gc.collect()
    return [kernel_seconds() for _ in range(calls)]


class Sampler:
    """Times the kernel every :data:`PERIOD_S` while it is running.

    The samples come from a ``SIGALRM`` handler in the main process;
    the interval timer is not inherited by forked children, and Python
    retries system calls the signal interrupts.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous: Callable = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.samples) < MIN_SAMPLES:
            self.samples.extend(sample(MIN_SAMPLES - len(self.samples)))

    def scale(self) -> float:
        """Factor from this region's host seconds to normalised ones."""
        return NOMINAL_S / statistics.fmean(self.samples)
