"""How fast the machine runs right now, sampled inside a cycle.

On a shared host this process's core slows down and speeds up by tens of
percent within seconds, so the wall time of a cycle says as much about the
neighbours as about the program.  ``Sampler`` times a short fixed probe loop
every ``interval`` seconds from SIGALRM; the handler runs in the main thread
between bytecodes, on the core the cycle runs on.  With speed s(t) and probe
time p = c / s, the work done in a cycle of wall time T is c T mean(1/p) over
samples taken uniformly in time: ``Sampler.cost`` returns T mean(1/p), the
cycle's cost in probe units, which stays put when the machine slows down.
The program never runs the probe's code, so no change to the program can
move the probe.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time

from pathlib import Path

import numpy as np

# Median time of ``py_probe_s`` on the 2-core box the baseline was taken on;
# a set-up cost in its units times this is seconds at that box's usual speed.
NOMINAL_PY_PROBE_S = 0.00105

_RNG = np.random.default_rng(0)
_X, _W = _RNG.standard_normal((64, 8)), _RNG.standard_normal((8, 8))


def probe_s(iterations: int = 200) -> float:
    """Wall time of a fixed loop of small numpy operations and interpreter work."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(iterations):
        h = np.maximum(_X @ _W, 0.0)
        total += float(np.log1p(np.exp(-np.abs(h))).sum())
        total += {"i": i, "pair": (i, i + 1)}["pair"][1]
    return time.perf_counter() - t0


def py_probe_s(iterations: int = 10000) -> float:
    """Wall time of a fixed pure-Python loop; needs no import but ``time``.

    A fresh interpreter runs it while it imports numpy, so its source is
    copied into the set-up sample's command line.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += (i * i) % 7
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Probes per second at the sampled speeds: the mean of 1 / probe time."""
    return statistics.fmean(1.0 / p for p in samples)


def _sample_in_worker(directory: str, interval: float) -> None:
    """Pool initializer: probe every ``interval`` seconds, appending to a per-pid file."""
    path = Path(directory) / f"probes-{os.getpid()}.txt"

    def tick(signum, frame):
        sample = probe_s()
        with open(path, "a", encoding="utf-8") as f:
            f.write(f"{sample!r}\n")

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)


class Sampler:
    """Probe samples every ``interval`` seconds while entered.

    Forked children do not inherit the interval timer, so pool workers are
    never interrupted by this process's probes; ``in_workers`` moves the
    sampling into the workers instead.
    """

    def __init__(self, interval: float = 0.1, probe=probe_s):
        self.interval = interval
        self.probe = probe
        self.samples: list[float] = []
        self.spent = 0.0  # wall time taken by the probes themselves
        self.active = False
        self._paused = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.active = False

    def _tick(self, signum, frame) -> None:
        if self._paused:
            return
        sample = self.probe()
        self.samples.append(sample)
        self.spent += sample

    @contextlib.contextmanager
    def in_workers(self, module, directory: Path):
        """Sample inside the process pool that ``module`` starts, not here.

        While ``--jobs 2`` workers hold both cores, a probe here would take a
        core from one of them and time its wait for a core.  Each worker
        probes itself instead, and its samples join this sampler's when the
        block ends.  The probes delay each worker by their own time, so
        their total over the workers is counted as probe time of the pool.
        Does nothing while the sampler is not entered.
        """
        if not self.active:
            yield
            return
        directory.mkdir(parents=True, exist_ok=True)
        base = module.ProcessPoolExecutor
        interval = self.interval
        jobs = []

        class SampledPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                jobs.append(max_workers or 1)
                super().__init__(max_workers, *args, initializer=_sample_in_worker,
                                 initargs=(str(directory), interval), **kwargs)

        module.ProcessPoolExecutor = SampledPool
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            module.ProcessPoolExecutor = base
            samples = [float(line) for path in sorted(directory.glob("probes-*.txt"))
                       for line in path.read_text(encoding="utf-8").split()]
            self.samples.extend(samples)
            self.spent += sum(samples) / max(jobs, default=1)

    def cost(self, wall: float) -> float:
        """``wall`` seconds in probe units, at the speeds sampled meanwhile."""
        return wall * speed(self.samples)
