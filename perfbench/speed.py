"""Machine-speed reference for the benchmark's timings.

The benchmark is sized for a small shared VM whose speed drifts by up to
about 1.5x over minutes, in process CPU time as much as in wall time, so two
runs of the same code a few minutes apart can differ by more than any useful
bound.  Every timed interval is therefore bracketed by reference bursts: three
fixed kernels written here, never in the program, and identical in every run
whatever the seed:

- ``objects``: small dataclass instances built, sorted and walked in the
  interpreter, as in minutiae matching;
- ``small_arrays``: many numpy calls on 2048-element boolean arrays, as in
  iris code comparison;
- ``files``: reads of small files and a JSON parse of a manifest-sized file,
  as in opening the database.

A kernel's time over its nominal time is that kernel's slowdown; their mean is
the machine's slowdown at that moment.  The three were kept from six
candidates timed next to a door access, a database open and an identify:
divided by them, the programs' medians over 20 s windows spread at most 0.07
of themselves, against 0.30 raw.  A pure-Python float loop and a large
``scipy.ndimage`` filter tracked the program worst.

A gated time is the wall time of an interval divided by the slowdown measured
around and, by a timer signal, during it (see :meth:`Speed.timed`): the time
the interval takes on this machine when the kernels run at their nominal
speed.  The wall times are printed next to it.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Nominal kernel times in ms: rounded medians measured on the 2-vCPU VM the
# benchmark was sized on (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
NOMINAL_MS = {"objects": 2.0, "small_arrays": 2.5, "files": 1.8}
WARMUP_BURSTS = 5
SAMPLE_INTERVAL_S = 0.2
OBJECT_COUNT = 3000
ARRAY_CALLS = 250
FILE_COUNT = 160
FILE_BYTES = 600
MANIFEST_ENTRIES = 500


@dataclass
class _Point:
    x: float
    y: float
    angle: float


class Speed:
    """Reference bursts and the slowdowns they measure."""

    def __init__(self, work: Path, sample: bool = True) -> None:
        self.sample = sample
        rng = np.random.default_rng(0)
        self._bits = rng.random((8, 2048)) < 0.5
        work.mkdir(parents=True, exist_ok=True)
        self._files = []
        for i in range(FILE_COUNT):
            path = work / f"ref{i:03d}.bin"
            path.write_bytes(rng.bytes(FILE_BYTES))
            self._files.append(path)
        self._manifest = work / "ref_manifest.json"
        self._manifest.write_text(json.dumps({"subjects": [
            {"id": f"s{i:04d}", "enrolled_at": "2026-01-01T00:00:00+00:00",
             "fingers": [f"s{i:04d}_finger_0.fpt"],
             "iris": [{"haar": f"s{i:04d}_h.irc", "mellin": f"s{i:04d}_m.irc"}]}
            for i in range(MANIFEST_ENTRIES)]}, indent=2))
        self.slowdowns: list = []
        self._last = None
        for _ in range(WARMUP_BURSTS):
            self.burst()
        self.slowdowns.clear()

    def _objects(self):
        points = [_Point(i * 0.37 % 97.0, i * 0.91 % 89.0, i * 0.13)
                  for i in range(OBJECT_COUNT)]
        points.sort(key=lambda p: p.angle * p.x)
        return sum(math.hypot(p.x - q.x, p.y - q.y) for p, q in zip(points, points[1:]))

    def _small_arrays(self):
        total = 0
        for k in range(ARRAY_CALLS):
            a = self._bits[k % 8]
            b = np.roll(self._bits[(k + 1) % 8], k % 16)
            total += int(np.count_nonzero(np.logical_xor(a, b) & a))
        return total

    def _read_files(self):
        size = sum(len(p.read_bytes()) for p in self._files)
        return size + len(json.loads(self._manifest.read_text())["subjects"])

    def burst(self) -> float:
        """Run the three kernels once; return the machine's slowdown."""
        ratios = []
        for name, kernel in (("objects", self._objects),
                             ("small_arrays", self._small_arrays),
                             ("files", self._read_files)):
            t0 = time.perf_counter_ns()
            kernel()
            ratios.append((time.perf_counter_ns() - t0) / 1e6 / NOMINAL_MS[name])
        self._last = statistics.fmean(ratios)
        self.slowdowns.append(self._last)
        return self._last

    def timed(self, fn):
        """Call ``fn``; return its result, its wall seconds and its seconds at
        reference speed.

        The burst that closed the previous interval opens this one.  While
        ``fn`` runs, and sampling is on, a timer signal runs a burst every
        ``SAMPLE_INTERVAL_S``.  The bursts cut the interval into segments;
        each segment is scaled by the mean slowdown of the bursts at its two
        ends, and the bursts' own time is left out of both figures.
        """
        before = self._last if self._last is not None else self.burst()
        cuts = []  # (burst start ns, burst end ns, slowdown)
        busy = False

        def on_alarm(signum, frame):
            nonlocal busy
            if busy:
                return
            busy = True
            t = time.perf_counter_ns()
            slowdown = self.burst()
            cuts.append((t, time.perf_counter_ns(), slowdown))
            busy = False

        if self.sample:
            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter_ns()
        try:
            result = fn()
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, old)
            t1 = time.perf_counter_ns()
        cuts.append((t1, t1, self.burst()))
        wall = scaled = 0.0
        seg_start = t0
        for burst_start, burst_end, after in cuts:
            seconds = (burst_start - seg_start) / 1e9
            wall += seconds
            scaled += seconds / ((before + after) / 2.0)
            seg_start, before = burst_end, after
        return result, wall, scaled
