"""Measurement helpers shared by the timed and the traced runs.

Nothing here changes the program under test.  The benchmark observes the
program from outside: it calls public entry points, times them, and — in the
traced run only — wraps public functions for the duration of a measurement
(:func:`wrapped`), restoring them afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Sequence

#: The recursion limit every pinned run executes under.  A fixed limit and a
#: fresh thread give every run the same starting depth, so results that
#: depend on stack depth (the weight-gain refresh recursion) repeat exactly.
PINNED_RECURSION_LIMIT = 1000


def pinned(fn: Callable[..., Any], *args: Any, pad: int = 0) -> Any:
    """Call ``fn(*args)`` on a fresh thread with a pinned recursion limit.

    ``pad`` adds that many frames below the call, which is how the traced
    run tests whether a result depends on the caller's stack depth.
    Exceptions are re-raised on the calling thread.
    """
    box: Dict[str, Any] = {}

    def descend(remaining: int) -> Any:
        if remaining:
            return descend(remaining - 1)
        return fn(*args)

    def target() -> None:
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(PINNED_RECURSION_LIMIT)
        try:
            box["value"] = descend(pad)
        except BaseException as error:  # re-raised on the calling thread
            box["error"] = error
        finally:
            sys.setrecursionlimit(previous)

    thread = threading.Thread(target=target, name="perfbench-pinned")
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


def digest(document: Any) -> str:
    """SHA-256 of a JSON document's canonical form."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values``."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """The larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


@contextlib.contextmanager
def wrapped(owner: Any, name: str, make: Callable[[Callable[..., Any]], Any]) -> Iterator[None]:
    """Replace ``owner.name`` by ``make(original)`` for the ``with`` body."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


class Spans:
    """In-memory spans: name, start, end and parent.

    A span opened while another is open on the same thread becomes its
    child.  The first span on any other thread (a pinned run, a server
    thread) becomes a child of the innermost span open on the thread that
    created the recorder, which is the benchmark's own call that caused it.
    :meth:`write` dumps the spans as JSONL once the benchmark ends; nothing
    is written while measuring.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main: List[Dict[str, Any]] = []
        self._local.stack = self._main
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = (stack or self._main)[-1:]  # a slice: safe if it just emptied
        record: Dict[str, Any] = {
            "id": next(self._ids),
            "name": name,
            "parent": parent[0]["id"] if parent else None,
            "thread": threading.current_thread().name,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        record.update(attrs)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter() - self.origin
            with self._lock:
                self.records.append(record)

    def timed(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """A wrapper factory for :func:`wrapped` that spans every call."""

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def call(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return original(*args, **kwargs)

            return call

        return make

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def children(self, parent: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
        return [
            r for r in self.records
            if r["parent"] == parent["id"] and r["name"] == name
        ]

    def write(self, path: str) -> None:
        ordered = sorted(self.records, key=lambda record: record["id"])
        with open(path, "w", encoding="utf-8") as handle:
            for record in ordered:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


class RunCapture:
    """Wraps ``run_workload`` as ``run_spec`` calls it, to see each run's cluster.

    The wrapper only keeps a reference to the cluster of the latest run;
    :meth:`samples` reads the per-operation latencies out of the clients'
    histories, the same records ``run_workload`` summarises.
    """

    def __init__(self) -> None:
        self.cluster: Any = None

    def make(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def call(cluster: Any, *args: Any, **kwargs: Any) -> Any:
            self.cluster = cluster
            return original(cluster, *args, **kwargs)

        return call

    @contextlib.contextmanager
    def installed(self) -> Iterator["RunCapture"]:
        import repro.experiments.spec as spec_module

        with wrapped(spec_module, "run_workload", self.make):
            yield self

    def samples(self) -> Dict[str, List[float]]:
        """Per-kind latency samples of the latest run, in virtual time."""
        kinds: Dict[str, List[float]] = {"read": [], "write": []}
        for client in self.cluster.clients.values():
            for record in client.history:
                kinds[record.kind].append(record.latency)
        self.cluster = None
        return kinds


def latency_metrics(pooled: Dict[str, List[float]]) -> Dict[str, float]:
    """The four modelled-latency end-to-end metrics over pooled samples."""
    return {
        "read_vt_p50": percentile(pooled["read"], 0.5),
        "read_vt_p99": percentile(pooled["read"], 0.99),
        "write_vt_p50": percentile(pooled["write"], 0.5),
        "write_vt_p99": percentile(pooled["write"], 0.99),
    }
