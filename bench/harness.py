"""Measurement primitives shared by the workloads.

Spans are recorded here, in the benchmark's own process, around calls
into public ``repro`` functions; nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: ``name, start, end, parent, run``.

    ``run`` identifies the repeat (job or replay pass) a span belongs
    to; spans are written out once, at exit, by :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Record an already-timed call (per-event latencies become spans)."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run,
            }
        )

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def per_run(self, name: str) -> list[float]:
        """Total self seconds of spans called *name*, one entry per run."""
        own = self.self_seconds()
        totals: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                totals[s["run"]] = totals.get(s["run"], 0.0) + own[s["id"]]
        return [totals[run] for run in sorted(totals)]

    def median_s(self, name: str) -> float:
        """Median over runs of the self time spent in *name* (0 if never)."""
        values = self.per_run(name)
        return statistics.median(values) if values else 0.0

    def unattributed_share(self, root: str) -> float:
        """Share of the *root* spans' wall that no child span accounts for."""
        own = self.self_seconds()
        roots = [s for s in self.spans if s["name"] == root]
        wall = sum(s["end"] - s["start"] for s in roots)
        return sum(own[s["id"]] for s in roots) / wall if wall > 0 else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


#: what the calibration kernel takes at the speed all times are reported at
#: (this repository's 2-CPU sandbox on the day the baseline was taken)
KERNEL_REFERENCE_S = 0.003


class MachineSpeed:
    """How fast the machine is right now, from a fixed calibration kernel.

    A shared box changes speed by 10-20 % over tens of seconds, which is
    more than any bound a regression could be held to.  The kernel --
    dictionary counting, a sort and a few numpy passes over fixed data,
    no ``repro`` code -- runs twice before and twice after every timed
    repeat; the repeat's CPU-bound share is then rescaled to the speed
    at which the kernel takes ``KERNEL_REFERENCE_S``.
    """

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        self._numbers = numpy.random.default_rng(0).integers(0, 50000, size=60000)
        self._words = [f"w{i % 3000}" for i in range(12000)]
        #: reference time / kernel time of every calibrated repeat
        self.speeds: list[float] = []

    def kernel_s(self) -> float:
        numpy = self._numpy
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for word in self._words:
            counts[word] = counts.get(word, 0) + 1
        sorted(counts.items(), key=lambda item: -item[1])
        numpy.sort(self._numbers)
        _, frequency = numpy.unique(self._numbers, return_counts=True)
        numpy.argsort(frequency)
        return time.perf_counter() - start

    def calibrated(self, call, parallel: int = 1):
        """``(call(), factor)``: multiply a time measured inside *call* by
        *factor* to get it at the reference speed.

        Only the share of the repeat's wall spent computing is rescaled:
        time asleep or waiting for the disk does not shrink on a faster
        machine.  That share is this process's CPU time plus that of the
        children it reaped, the latter divided by *parallel* (how many of
        them ran side by side), over the wall, and at most 1.
        """
        kernel = [self.kernel_s(), self.kernel_s()]
        own, children, start = *cpu_seconds(), time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        own, children = (now - then for now, then in zip(cpu_seconds(), (own, children)))
        cpu = own + children / parallel
        kernel += [self.kernel_s(), self.kernel_s()]
        speed = KERNEL_REFERENCE_S / statistics.median(kernel)
        self.speeds.append(speed)
        busy = min(1.0, cpu / wall)
        return result, 1.0 - busy + busy * speed

    def repeat_for(
        self, seconds: float, min_repeats: int, call, parallel: int = 1
    ) -> list[tuple]:
        """Calibrated ``call(i)`` until *seconds* passed and *min_repeats* ran.

        Garbage is collected between repeats, outside whatever *call*
        times, so one repeat's allocations are not billed to the next.
        """
        results = []
        deadline = time.perf_counter() + seconds
        while len(results) < min_repeats or time.perf_counter() < deadline:
            gc.collect()
            index = len(results)
            results.append(self.calibrated(lambda: call(index), parallel))
        return results


def cpu_seconds() -> tuple[float, float]:
    """CPU time of this process, and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), children.ru_utime + children.ru_stime


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[rank]


def summarize(values: list[float], unit: str) -> dict:
    """Median with quartiles and the sample count, as one metric entry."""
    entry = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, min=min(values), max=max(values))
    return entry


def value(number: float, unit: str) -> dict:
    """A metric that is one observation (a count, an exact ratio)."""
    return {"value": number, "unit": unit, "n": 1}


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0
