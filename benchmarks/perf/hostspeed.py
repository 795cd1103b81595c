"""Host speed, sampled on every CPU while the benchmark runs.

On a shared host each CPU keeps switching between full speed and about
half speed, many times a second and independently of the other CPUs,
and the share of slow time drifts over minutes.  A workload's wall time
moves with it: 10-30% between runs a few minutes apart.  A kernel timed
on another CPU does not predict a rep's time (correlation 0.1); one
timed on the same CPU at the same time does (0.9).  At times the
hypervisor also takes a CPU away altogether (steal time, up to a fifth
of it): wall time grows, CPU time does not.

So :class:`Samplers` keeps one process pinned to each CPU that runs a
few milliseconds of interpreter work every ``PERIOD_S`` and records how
much CPU time it took.  A measured window (:func:`measured`) records
its interval and how busy each CPU was in it, and how much was stolen.
:meth:`Samplers.scale` weights each CPU's mean kernel time in the
interval by that busy time, and returns ``REFERENCE_S`` over the
result: the factor that turns the window's CPU seconds into seconds on
an uncontended host.  The factor for wall seconds also stretches each
CPU's kernel time by the share of the window stolen from it.

Run as ``python3 hostspeed.py CPU PATH`` it is one sampler.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import os
import statistics
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: CPU seconds one kernel run takes on an uncontended CPU: the 10th
#: percentile of its samples on the 2-vCPU Xeon host the bounds were
#: set on.  Scaled times are therefore seconds at full speed.
REFERENCE_S = 0.0025
#: A sampler starts a kernel run this often, so it takes about a tenth
#: of its CPU.
PERIOD_S = 0.025


class _Event:
    __slots__ = ("time", "seq")

    def __init__(self, time_: int, seq: int):
        self.time, self.seq = time_, seq

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


_HEADER = struct.Struct("!HHII")


def kernel() -> None:
    """A few milliseconds of what the program spends its time on: dict
    updates, an event heap of small objects, and packing and hashing
    bytes."""
    counts: Dict[int, int] = {}
    heap: List[_Event] = []
    digest = hashlib.sha256()
    t = 1
    for i in range(1000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        t = (t * 1103515245 + 12345) % 2147483648
        heapq.heappush(heap, _Event(t, i))
        digest.update(_HEADER.pack(i & 0xFFFF, t & 0xFFFF, i, t))
    while heap:
        heapq.heappop(heap)


def sample(cpu: int, path: Path) -> None:
    """Pin to ``cpu`` and append ``<monotonic time> <kernel CPU
    seconds>`` lines to ``path`` until the parent process is gone."""
    os.sched_setaffinity(0, {cpu})
    gc.disable()
    parent = os.getppid()
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:
            started = time.monotonic()
            spent = time.thread_time()
            kernel()
            spent = time.thread_time() - spent
            ended = time.monotonic()
            out.write(f"{(started + ended) / 2:.4f} {spent:.7f}\n")
            time.sleep(max(0.0, PERIOD_S - (ended - started)))


def cpu_times() -> Dict[str, Tuple[float, float]]:
    """Seconds each CPU has spent busy, and waiting while the hypervisor
    ran another guest (steal), since boot, from /proc/stat."""
    tick = os.sysconf("SC_CLK_TCK")
    times = {}
    with open("/proc/stat") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                user, nice, system = map(int, fields[:3])
                steal = int(fields[7]) if len(fields) > 7 else 0
                times[name[3:]] = ((user + nice + system) / tick, steal / tick)
    return times


@contextmanager
def measured(window: Dict) -> Iterator[None]:
    """Record the interval of the ``with`` body, and each CPU's busy and
    stolen seconds in it, into ``window``."""
    before = cpu_times()
    window["start"] = time.monotonic()
    try:
        yield
    finally:
        window["end"] = time.monotonic()
        after = cpu_times()
        for i, key in enumerate(("busy", "steal")):
            window[key] = {cpu: seconds[i] - before.get(cpu, (0.0, 0.0))[i]
                           for cpu, seconds in after.items()}


class Samplers:
    """One sampler process per CPU this process may run on, writing
    into ``directory``; stopped by :meth:`stop`."""

    def __init__(self, directory: Path):
        self.paths = {str(cpu): directory / f"host-cpu{cpu}.txt"
                      for cpu in sorted(os.sched_getaffinity(0))}
        self.procs = [subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), cpu, str(path)])
            for cpu, path in self.paths.items()]

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()

    def read(self) -> Dict[str, List[List[float]]]:
        """Every sample so far, per CPU: ``[time, kernel seconds]``."""
        samples = {}
        for cpu, path in self.paths.items():
            lines = path.read_text().splitlines() if path.exists() else []
            samples[cpu] = [[float(x) for x in line.split()]
                            for line in lines if len(line.split()) == 2]
        return samples

    @staticmethod
    def scale(window: Dict, samples: Dict[str, List[List[float]]]
              ) -> Dict[str, float]:
        """Factors that turn the window's CPU seconds (``cpu``) and wall
        seconds (``wall``) into seconds on an uncontended host: the
        reference kernel time over the kernel time the window saw, each
        CPU weighted by the seconds the workload kept it busy.  For wall
        seconds each CPU's kernel time is also stretched by the share of
        the window the hypervisor stole from that CPU, which CPU time
        does not count."""
        span = window["end"] - window["start"]
        weights, times, stretched = [], [], []
        for cpu, rows in samples.items():
            inside = [spent for at, spent in rows
                      if window["start"] <= at <= window["end"]]
            if inside:
                mean = statistics.mean(inside)
                available = max(0.05, 1.0 - window["steal"].get(cpu, 0.0)
                                / span)
                times.append(mean)
                stretched.append(mean / available)
                # The CPU's busy time, less what the sampler spent.
                weights.append(max(0.0, window["busy"].get(cpu, 0.0)
                                   - sum(inside)))
        if not times:
            raise RuntimeError("no host-speed samples in the window")
        if not sum(weights):
            weights = [1.0] * len(times)
        return {key: REFERENCE_S * sum(weights)
                / sum(w * t for w, t in zip(weights, kernel))
                for key, kernel in (("cpu", times), ("wall", stretched))}


if __name__ == "__main__":
    sample(int(sys.argv[1]), Path(sys.argv[2]))
