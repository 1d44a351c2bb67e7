"""In-memory span recording and the self-time arithmetic over it.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent) and the benchmark job it ran
in.  Spans live in parallel arrays so that hundreds of thousands of them
stay small, and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are nested and single-threaded, so the children of a span
never overlap each other and lie inside it.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter


class Tracer:
    """Records spans and named counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.job_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``before(args)`` runs ahead of the span and its return value is
        handed to ``after(args, result, token)``, which runs once the call
        has returned normally.
        """
        nid = self.name_id(name)
        names, starts, ends, parents, jobs = (
            self.name, self.start, self.end, self.parent, self.job)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- moving spans between processes and onto disk ------------------------

    def to_json(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "counts": dict(self.counts),
                "peaks": self.peaks}

    def merge(self, data: dict, job_id: int) -> None:
        """Append the spans and counters another process recorded."""
        remap = [self.name_id(n) for n in data["names"]]
        offset = len(self.start)
        self.name.extend(remap[n] for n in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.job.extend([job_id] * len(data["name"]))
        self.counts.update(data["counts"])
        for key, value in data["peaks"].items():
            self.peak(key, value)

    def write_tsv(self, path: str) -> None:
        """Write every span as ``name start end parent job`` (gzip TSV)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            names = self.names
            for i, (n, s, e, p, j) in enumerate(zip(self.name, self.start, self.end,
                                                    self.parent, self.job)):
                fh.write(f"{i}\t{names[n]}\t{s:.9f}\t{e:.9f}\t{p}\t{j}\n")

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            own[p] -= e - s
    return own


def group_time(name, start, end, parent, ids: set[int]) -> float:
    """Wall time covered by spans named in ``ids``.

    A span nested inside another span of the group is already covered by
    it, so only outermost group spans are summed.
    """
    total = 0.0
    for i, n in enumerate(name):
        if n not in ids:
            continue
        p = parent[i]
        while p >= 0 and name[p] not in ids:
            p = parent[p]
        if p < 0:
            total += end[i] - start[i]
    return total
