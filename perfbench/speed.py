"""Core-speed correction of the measured times.

The cores of a shared virtual machine run the same Python code at speeds that
swing by up to ~1.7x within a second (another tenant's hyper-thread on the
same physical core takes its share), and the share of slow time drifts over
minutes.  Raw wall-clock times of identical passes then spread by 25-35%
between runs, more than any regression bound worth having.

``SpeedProbe`` samples the core's speed while the measured code runs: after
every ``interval`` seconds of process CPU time (``ITIMER_PROF``) it times a
fixed reference kernel.  The samples are uniform in CPU time, so the CPU time
the code would have taken on a core that runs the kernel in ``REFERENCE_S`` is
``cpu * mean(REFERENCE_S / kernel_seconds)``.  Waiting for a core is not work
and is not scaled: corrected wall = corrected CPU + (wall - CPU).  The
kernels' own time is subtracted from both clocks first.
"""

import gc
import signal
import statistics
import time

REFERENCE_S = 0.0008          # the kernel inside a workload on an uncontended core
                              # (2-vCPU KVM guest, Python 3.11)
_KEYS = [(i % 41, i % 13) for i in range(2000)]
_MONOMIALS = [tuple(i * j % 4 for j in range(8)) for i in range(40)]


def _kernel(table):
    """Seconds for a fixed piece of stdlib-only work shaped like the library's
    polynomial arithmetic: dict updates under tuple keys, and exponent-tuple
    products accumulated into a dict.  On a 2-vCPU KVM guest its slowdown
    tracked that of the workloads (log-log slope -0.98 against badprime-laurent
    pass times); a pure dict loop under-corrected.  It uses no liedual code, so no change to
    the library can change it."""
    t0 = time.perf_counter()
    for key in _KEYS:
        table[key] += 1
    products = {}
    for a in _MONOMIALS[:20]:
        for b in _MONOMIALS[20:]:
            m = tuple(x + y for x, y in zip(a, b))
            products[m] = (products.get(m, 0) + 3) % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager measuring raw and speed-corrected wall and CPU seconds."""

    def __init__(self, interval=0.05):
        self.interval = interval
        self.wall = self.cpu = 0.0
        self._table = dict.fromkeys(_KEYS, 0)
        self._samples = []

    def _sample(self, signum=None, frame=None):
        # With the collector off, the kernel's time does not grow with the
        # program's heap, so a heap that grows shows as the program's cost
        # rather than as a slower core.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._samples.append(_kernel(self._table))
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.wall = time.perf_counter() - self._wall0
        self.cpu = time.process_time() - self._cpu0
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()

    @property
    def speed(self):
        """Mean core speed relative to the reference core."""
        return statistics.fmean(REFERENCE_S / s for s in self._samples)

    def corrected(self):
        """(wall, cpu) seconds at the reference speed, kernels excluded."""
        kernels = sum(self._samples[1:-1])
        cpu = max(self.cpu - kernels, 0.0) * self.speed
        return cpu + max(self.wall - self.cpu, 0.0), cpu
