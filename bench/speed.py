"""Reference seconds: wall time rescaled by the measured speed of the CPU.

On a shared 2-CPU VM (Python 3.11) each CPU switches, every few seconds and
independently of the other, between full speed and about 40% slower, and
the share of slow time drifts over minutes.  A pass's wall time then
measures the host as much as the program.  So the benchmark times a short
fixed loop on the pass's own CPU while the pass runs, ten times a second,
and reports each time in reference seconds: the time the same work would
take on a CPU that runs the loop in REF_LOOP_S.  A change to the program
moves reference seconds in proportion to wall time; a change of the host's
speed, which moves the loop as much as the program, does not.
"""

from __future__ import annotations

import random
import signal
import time
from typing import List, Sequence, Tuple


def _tree(rng: random.Random, leaves: int):
    if leaves == 1:
        return "a"
    k = rng.randrange(1, leaves)
    return (_tree(rng, k), str(leaves), _tree(rng, leaves - k))


def _walk(t) -> str:
    if isinstance(t, str):
        return t
    return "(" + "".join(_walk(x) for x in t) + ")"


# The loop prints six fixed random trees the way print_sexpr prints an
# expression: recursion, generators and string joins.  On a shared 2-CPU
# Xeon VM its time tracks the program's own slowdown (over 24 chain passes,
# wall time ~ loop time^1.05), where an arithmetic loop under-corrects
# (^1.25).  It is the
# benchmark's code, so no change to omegalab moves it.
TREES = [_tree(random.Random(i), 40) for i in range(6)]
REF_LOOP_S = 0.0004  # the loop's time on the reference CPU (typical on the VM)
EVERY_S = 0.1  # wall seconds between loop samples during a pass
SETUP_EVERY_S = 0.02  # the same during set-up, which lasts about 0.2 s


def loop_s() -> float:
    """Time one run of the reference loop on the current CPU."""
    t = time.perf_counter()
    for tree in TREES:
        _walk(tree)
    return time.perf_counter() - t


def reference_seconds(start: float, end: float, samples: Sequence[Tuple[float, float]],
                      end_loop: float) -> float:
    """Reference seconds of the work done between start and end.

    samples are (time the loop ended, its duration) for each loop run inside
    [start, end]; end_loop is one more loop, timed just after end.  The
    program's time in each stretch up to a sample (the stretch less the
    loop itself) is scaled by REF_LOOP_S / that loop's duration; the last
    stretch is scaled by end_loop.
    """
    total = 0.0
    prev = start
    for t, r in samples:
        total += (t - prev - r) / r
        prev = t
    total += (end - prev) / end_loop
    return total * REF_LOOP_S


class SpeedProbe:
    """Times the reference loop every `every` wall seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, on the CPU the
    pass is pinned to, so it samples the speed the pass itself gets.
    """

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.samples: List[Tuple[float, float]] = []
        self.start = 0.0

    def _sample(self, signum, frame):
        r = loop_s()
        self.samples.append((time.perf_counter(), r))

    def begin(self, since: float = 0.0) -> None:
        """Start sampling; the measured stretch began `since` seconds ago."""
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter() - since
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def finish(self) -> Tuple[float, float, float]:
        """Stop sampling: (wall seconds, reference seconds, seconds spent in the loop)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        ref = reference_seconds(self.start, end, self.samples, loop_s())
        return end - self.start, ref, sum(r for _, r in self.samples)
