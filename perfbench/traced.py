"""The traced run: one workload's per-layer split, measured from outside.

Kept apart from the timed runs, it has four parts:

1. a ``python -X importtime`` subprocess of the workload's entry imports,
   summed per ``repro`` subpackage (``import.*``);
2. cProfile over one pass of the workload's inputs, covering every thread
   the pass starts, aggregated per layer (``<layer>.self_s``,
   ``<layer>.calls``); on ``sharded-reads`` a second profiled pass must
   repeat every layer's call count exactly;
3. runs of the workload's base spec with the metrics-only observability
   switched on (kernel, net, core, storage and monitoring counters), with
   tracing on (``obs.*``), and from two starting stack depths
   (``core.depth_sensitive``);
4. spans the benchmark records around its own calls into public functions,
   written to ``.perfbench/spans/`` when the run ends.
"""

from __future__ import annotations

import cProfile
import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

import inputs
import workloads
from harness import Spans, digest, median, pinned, wrapped

#: Layers, named after the ``repro`` modules they aggregate.
LAYERS = (
    "net.simloop", "net", "core", "storage", "workloads", "sim",
    "monitoring", "experiments", "obs", "serve", "chaos",
)
IMPORT_PACKAGES = (
    "experiments", "sim", "obs", "core", "net", "workloads", "monitoring",
    "storage", "serve", "chaos",
)
#: Extra frames under the second depth-sensitivity run.
DEPTH_PAD = 60
#: Requests per traced pass (at most the workload's distinct inputs).
TRACED_PASS = 3

PER_LAYER: Dict[str, str] = {
    "import.total_s": "s",
    **{f"import.{package}_s": "s" for package in IMPORT_PACKAGES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "net.simloop.events": "count",
    "net.simloop.events_per_op": "events/op",
    "net.simloop.heap_share": "ratio",
    "net.messages": "count",
    "net.msgs_per_op": "msgs/op",
    "core.weight_gain_refreshes": "count",
    "core.refresh_depth_max": "count",
    "core.restarts_per_op": "restarts/op",
    "core.depth_sensitive": "flag",
    "storage.phases_per_op": "phases/op",
    "storage.hottest_share": "ratio",
    "workloads.build_s": "s",
    "sim.cluster_build_s": "s",
    "monitoring.rounds": "count",
    "monitoring.transfers_attempted": "count",
    "monitoring.transfers_effective_ratio": "ratio",
    "experiments.run_overhead_s": "s",
    "experiments.first_result_s": "s",
    "experiments.result_gap_s_p50": "s",
    "experiments.serialise_s": "s",
    "experiments.result_bytes_per_run": "B/run",
    "serve.submit_s_p50": "s",
    "serve.first_byte_s_p50": "s",
    "serve.stream_s_p50": "s",
    "serve.runs_completed": "count",
    "obs.trace_records_per_run": "records/run",
    "obs.record_overhead_s": "s",
    "obs.analysis_s": "s",
    "chaos.baseline_s": "s",
    "chaos.violations": "count",
    "chaos.degraded": "count",
    "trace.overhead_frac": "ratio",
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to, or ``""`` outside the layers."""
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return ""
    parts = filename[at + len(marker):].split(os.sep)
    if parts[0] == "net":
        return "net.simloop" if parts[-1] == "simloop.py" else "net"
    if parts[0] == "quorum":
        return "storage"
    return parts[0] if parts[0] in LAYERS else ""


class LayerProfile:
    """cProfile on the calling thread and on every thread started meanwhile."""

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _thread_started(self, frame: Any, event: str, arg: Any) -> None:
        sys.setprofile(None)
        profile = cProfile.Profile()
        with self._lock:
            self.profiles.append(profile)
        profile.enable()

    @contextlib.contextmanager
    def threads(self) -> Iterator[None]:
        """Profile every thread started inside the ``with`` body."""
        threading.setprofile(self._thread_started)
        try:
            yield
        finally:
            threading.setprofile(None)

    @contextlib.contextmanager
    def main(self) -> Iterator[None]:
        profile = cProfile.Profile()
        self.profiles.append(profile)
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    def layers(self) -> Dict[str, Tuple[float, int]]:
        """Per layer: (self seconds, calls)."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        with self._lock:
            profiles = list(self.profiles)
        for profile in profiles:
            for entry in profile.getstats():
                if isinstance(entry.code, str):
                    continue  # a builtin: no source file, no layer
                layer = layer_of(entry.code.co_filename)
                if layer:
                    totals[layer][0] += entry.inlinetime
                    totals[layer][1] += entry.callcount
        return {layer: (self_s, calls) for layer, (self_s, calls) in totals.items()}


class StreamTimes:
    """Times every item a wrapped generator yields, per call."""

    def __init__(self) -> None:
        self.streams: List[List[float]] = []

    def make(self, original: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
        def call(*args: Any, **kwargs: Any) -> Iterator[Any]:
            times = [time.perf_counter()]
            self.streams.append(times)
            inner = original(*args, **kwargs)
            try:
                for item in inner:
                    times.append(time.perf_counter())
                    yield item
            finally:
                inner.close()

        return call

    def first(self) -> List[float]:
        return [t[1] - t[0] for t in self.streams if len(t) > 1]

    def gaps(self) -> List[float]:
        return [b - a for t in self.streams for a, b in zip(t[1:], t[2:])]

    def spans(self) -> List[float]:
        return [t[-1] - t[1] for t in self.streams if len(t) > 1]


def import_metrics(workload: str) -> Dict[str, float]:
    """``-X importtime`` of the workload's entry imports, in a fresh interpreter."""
    statement = "; ".join(f"import {module}" for module in inputs.ENTRY_IMPORTS[workload])
    env = dict(os.environ)
    source = os.path.join(os.path.dirname(inputs.HERE), "src")
    env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    total = 0
    for line in completed.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        total += int(own)
        parts = name.strip().split(".")
        if parts[0] == "repro" and len(parts) > 1 and parts[1] in totals:
            totals[parts[1]] += int(own)
    metrics = {f"import.{package}_s": us / 1e6 for package, us in totals.items()}
    metrics["import.total_s"] = total / 1e6
    return metrics


def timed_pass(wl: workloads.Workload, first: int) -> Tuple[float, List[workloads.Outcome]]:
    """One pass of ``TRACED_PASS`` requests, from input ``first`` on."""
    started = time.perf_counter()
    outcomes = [wl.unit(first + index) for index in range(min(wl.distinct, TRACED_PASS))]
    return time.perf_counter() - started, outcomes


def profiled_pass(wl: workloads.Workload, first: int) -> Tuple[float, List[workloads.Outcome], LayerProfile]:
    profile = LayerProfile()
    with profile.threads():
        wl.start()
        try:
            with wl.spans.span("pass", kind="profiled"), profile.main():
                seconds, outcomes = timed_pass(wl, first)
        finally:
            wl.close()
    return seconds, outcomes, profile


@contextlib.contextmanager
def observed(wl: workloads.Workload, streams: StreamTimes, server_streams: StreamTimes) -> Iterator[None]:
    """Wrap the public functions the stream-level metrics time."""
    spans = wl.spans
    with contextlib.ExitStack() as stack:
        if isinstance(wl, workloads.ServeSweep):
            import repro.serve.service as service

            stack.enter_context(wrapped(service, "execute_stream_resilient", streams.make))
            stack.enter_context(wrapped(service, "write_jsonl_line", spans.timed("write_jsonl_line")))
            stack.enter_context(wrapped(service.ExperimentService, "stream_results", server_streams.make))
        if isinstance(wl, workloads.ChaosBenign):
            import repro.chaos.campaign as campaign

            stack.enter_context(wrapped(campaign, "execute_stream_resilient", streams.make))
            stack.enter_context(wrapped(campaign, "run_with_stable_stack", spans.timed("baseline")))
        yield


def base_spec_metrics(wl: workloads.Workload, workdir: str) -> Tuple[Dict[str, float], Dict[str, bool]]:
    """The base spec, run plain, from two depths, with metrics, with a trace."""
    import repro.experiments.spec as spec_module
    from repro.experiments import run_spec
    from repro.experiments.spec import ObservabilitySpec
    from repro.obs import check_trace_invariants, critical_path_report, read_trace

    spans = wl.spans
    spec = wl.base_spec()
    with contextlib.ExitStack() as stack:
        stack.enter_context(wrapped(spec_module.ClusterSpec, "build", spans.timed("ClusterSpec.build")))
        stack.enter_context(wrapped(spec_module.WorkloadSpec, "build", spans.timed("WorkloadSpec.build")))
        stack.enter_context(wrapped(spec_module, "run_workload", spans.timed("run_workload")))
        with spans.span("run_spec", kind="base") as top:
            plain = pinned(run_spec, spec)
        cluster_build = spans.children(top, "ClusterSpec.build")
        workload_build = spans.children(top, "WorkloadSpec.build")
        run_workload = spans.children(top, "run_workload")
    untraced_s = top["end"] - top["start"]

    with spans.span("run_spec", kind="padded", pad=DEPTH_PAD):
        padded = pinned(run_spec, spec, pad=DEPTH_PAD)

    observed_spec = dataclasses.replace(
        spec, observability=ObservabilitySpec(enabled=True, metrics=True, trace=False)
    )
    counted = []
    for repeat in range(2):
        with spans.span("run_spec", kind="metrics", repeat=repeat):
            counted.append(pinned(run_spec, observed_spec))
    counters = counted[0]["metrics"]["counters"]
    gauges = counted[0]["metrics"]["gauges"]

    trace_path = os.path.join(workdir, "base-trace.jsonl")
    traced_spec = dataclasses.replace(
        spec,
        observability=ObservabilitySpec(
            enabled=True, metrics=False, trace=True, trace_path=trace_path
        ),
    )
    with spans.span("run_spec", kind="traced") as traced_span:
        traced = pinned(run_spec, traced_spec)
    records = read_trace(trace_path)
    with spans.span("check_trace_invariants") as invariants:
        check_trace_invariants(records)
    with spans.span("critical_path_report") as critical:
        critical_path_report(records)

    ops = plain["operations"]
    events = counters["kernel.events"]
    monitoring = plain.get("monitoring") or {}
    attempted = monitoring.get("transfers_attempted", 0)
    phases = sum(
        value for name, value in counters.items()
        if name.endswith(".phase1") or name.endswith(".phase2")
    )
    metrics = {
        "net.simloop.events": events,
        "net.simloop.events_per_op": events / ops,
        "net.simloop.heap_share": counters["kernel.heap_dispatches"] / events,
        "net.messages": counters["net.sent"],
        "net.msgs_per_op": counters["net.sent"] / ops,
        "core.weight_gain_refreshes": counters.get("storage.weight_gain_refreshes", 0),
        "core.refresh_depth_max": gauges.get("storage.weight_gain_refresh_depth", {}).get("max", 0),
        "core.restarts_per_op": plain["restarts"] / ops,
        "core.depth_sensitive": int(digest(plain) != digest(padded)),
        "storage.phases_per_op": phases / ops,
        "storage.hottest_share": (plain.get("imbalance") or {}).get("hottest_share", 1.0),
        "workloads.build_s": sum(r["end"] - r["start"] for r in workload_build),
        "sim.cluster_build_s": sum(r["end"] - r["start"] for r in cluster_build),
        "monitoring.rounds": monitoring.get("rounds_completed", 0),
        "monitoring.transfers_attempted": attempted,
        "monitoring.transfers_effective_ratio": (
            counters.get("protocol.transfers.effective", 0) / attempted if attempted else 0
        ),
        "experiments.run_overhead_s": untraced_s - sum(
            r["end"] - r["start"] for r in run_workload
        ),
        "obs.trace_records_per_run": traced["trace"]["records"],
        "obs.record_overhead_s": (traced_span["end"] - traced_span["start"]) - untraced_s,
        "obs.analysis_s": (invariants["end"] - invariants["start"])
        + (critical["end"] - critical["start"]),
    }

    def counts(result: Dict[str, Any]) -> Tuple[Any, ...]:
        return (
            result["metrics"]["counters"]["kernel.events"],
            result["messages"],
            result["operations"],
            digest({k: v for k, v in result.items() if k != "metrics"}),
        )

    checks = {"observed repeats reproduce events, messages and ops": counts(counted[0]) == counts(counted[1])}
    return metrics, checks


def stream_metrics(
    wl: workloads.Workload, outcomes: Sequence[workloads.Outcome],
    streams: StreamTimes, server_streams: StreamTimes,
) -> Dict[str, float]:
    """Executor-stream, serialisation, serve and chaos figures of the plain pass."""
    spans = wl.spans
    metrics: Dict[str, float] = {}
    if streams.streams:
        metrics["experiments.first_result_s"] = median(streams.first())
        metrics["experiments.result_gap_s_p50"] = median(streams.gaps() or [0.0])
    if isinstance(wl, workloads.RunWorkload):
        from repro.experiments import RunResult, write_jsonl_line

        sink = io.StringIO()
        for key, result in sorted(wl.results.items()):
            run = RunResult(scenario=wl.specs[key].name, params=(("seed", wl.specs[key].seed),), result=result)
            with spans.span("write_jsonl_line"):
                write_jsonl_line(run, sink)
        metrics["experiments.serialise_s"] = median(spans.durations("write_jsonl_line"))
        metrics["experiments.result_bytes_per_run"] = len(sink.getvalue().encode("utf-8")) / len(wl.results)
    if isinstance(wl, workloads.ServeSweep):
        body_bytes = sum(len(body) for body in wl.bodies.values())
        runs = sum(body.count(b"\n") for body in wl.bodies.values())
        metrics["experiments.serialise_s"] = median(spans.durations("write_jsonl_line"))
        metrics["experiments.result_bytes_per_run"] = body_bytes / runs
        metrics["serve.submit_s_p50"] = median(spans.durations("submit"))
        metrics["serve.first_byte_s_p50"] = median(server_streams.first())
        metrics["serve.stream_s_p50"] = median(server_streams.spans())
        metrics["serve.runs_completed"] = wl.runs_completed
    if isinstance(wl, workloads.ChaosBenign):
        runs = outcomes[-1].runs
        metrics["experiments.serialise_s"] = median(spans.durations("render")) / runs
        metrics["experiments.result_bytes_per_run"] = median(list(wl.report_bytes.values())) / runs
        metrics["chaos.baseline_s"] = median(spans.durations("baseline"))
        metrics["chaos.violations"] = sum(wl.violations)
        metrics["chaos.degraded"] = sum(wl.degraded.values())
    return metrics


def run(name: str, seed: int, workdir: str, spans_path: str) -> Dict[str, Any]:
    """The traced run of ``name``; returns the benchmark's result object."""
    spans = Spans()
    wl = workloads.make(name, seed, workdir, spans)
    values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    checks: Dict[str, bool] = {}
    with spans.span("import"):
        values.update(import_metrics(name))

    streams, server_streams = StreamTimes(), StreamTimes()
    with observed(wl, streams, server_streams):
        wl.start()
        try:
            outcomes = [wl.unit(0)]  # warm-up: caches filled, pools spawned
            with spans.span("pass", kind="plain"):
                plain_s, plain = timed_pass(wl, 1)
            outcomes += plain
        finally:
            wl.close()
    values.update(stream_metrics(wl, plain, streams, server_streams))

    profiled_s, profiled, profile = profiled_pass(wl, 1)
    layers = profile.layers()
    for layer, (self_s, calls) in layers.items():
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.calls"] = calls
    values["trace.overhead_frac"] = profiled_s / plain_s - 1
    if name == "sharded-reads":
        _, again, repeat = profiled_pass(wl, 1)
        profiled += again
        checks["layer call counts repeat between profiled passes"] = all(
            layers[layer][1] == calls for layer, (_, calls) in repeat.layers().items()
        )

    base, base_checks = base_spec_metrics(wl, workdir)
    values.update(base)
    checks.update(base_checks)
    # Profiled runs are compared only with each other: where a result
    # depends on stack depth, it also differs between profiled and plain runs.
    checks["repeats reproduce"] = (
        workloads.repeats_agree(outcomes) and workloads.repeats_agree(profiled)
    )
    outcomes += profiled
    checks.update(wl.checks(outcomes))
    if set(values) != set(PER_LAYER):
        raise AssertionError(f"unexpected per-layer metrics: {sorted(set(values) - set(PER_LAYER))}")
    spans.write(spans_path)
    return {
        "checks": checks,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: (values[name], unit) for name, unit in PER_LAYER.items()},
    }
