"""The built-in microbenchmark suite.

Six benchmarks — one per layer of the hot path, an instrumented twin of
the kernel benchmark, and one for the trace-analytics layer:

* ``event-loop`` — pure kernel dispatch: tasks ping-ponging through
  zero-delay sleeps and queue handoffs, no network.  This is the benchmark
  the ready-deque fast path targets; its events/sec is the kernel's
  dispatch throughput ceiling.
* ``event-loop-obs`` — the same workload with a metrics-collecting
  :class:`~repro.obs.Observer` installed.  Comparing its events/sec
  against ``event-loop`` measures the *enabled* observability overhead.
  Both run the same dispatch loop, which counts ready/heap hits either
  way; the kernel hands those counts to the observer once per ``run``
  call, not per event.
* ``abd-round`` — protocol traffic: closed-loop read/write rounds of the
  classical ABD register over a majority quorum system, exercising the
  network send/deliver path, response collectors and latency summaries.
* ``sharded-zipfian`` — the sharded data plane: a zipfian-keyed workload
  routed across independent shard groups through the keyed facade
  (FNV-1a routing memo, per-shard metrics).
* ``sweep`` — the experiment layer: a small serial parameter sweep through
  the registry/executor/result plumbing, measuring per-run orchestration
  overhead on top of the simulation itself.
* ``trace-analyze`` — the trace-analytics layer: records/sec through the
  invariant checker and the critical-path attributor over a synthetic
  well-formed trace (no simulation; this measures the analysis code the
  ``trace check`` / ``trace critical-path`` subcommands run).

Every benchmark builds its world from fixed seeds, so the reported event /
op / message counts are bit-deterministic; only wall time varies.  Scales
are fixed per mode (``quick`` for CI smoke, full for real measurements) —
see :mod:`repro.bench.core` for the contract.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.bench.core import benchmark
from repro.core.spec import SystemConfig
from repro.net.latency import UniformLatency
from repro.net.simloop import Queue, SimLoop, gather
from repro.sim.cluster import build_sharded_cluster, build_static_cluster
from repro.sim.runner import run_workload
from repro.sim.workload import uniform_workload
from repro.workloads import WorkloadGenerator, ZipfianKeys


def _config(n: int = 5, f: int = 1) -> SystemConfig:
    return SystemConfig(servers=tuple(f"s{i}" for i in range(1, n + 1)), f=f)


@benchmark("event-loop", "kernel dispatch: zero-delay sleeps + queue handoffs")
def bench_event_loop(quick: bool) -> Mapping[str, Any]:
    tasks, iterations = (10, 200) if quick else (50, 400)
    loop = SimLoop()
    queue = Queue()

    async def worker(index: int) -> None:
        for i in range(iterations):
            await loop.sleep(0)
            queue.put(index * iterations + i)
            await queue.get()

    loop.run_until_complete(gather(loop, [worker(t) for t in range(tasks)]))
    return {
        "events": loop.events_processed,
        "ops": tasks * iterations * 2,  # two awaits per iteration
        "counters": {"tasks": tasks, "iterations": iterations},
    }


@benchmark("event-loop-obs", "kernel dispatch with a metrics observer installed")
def bench_event_loop_obs(quick: bool) -> Mapping[str, Any]:
    from repro.obs import Observer, observing

    tasks, iterations = (10, 200) if quick else (50, 400)
    observer = Observer(metrics=True, trace=False)
    with observing(observer):
        loop = SimLoop()
        queue = Queue()

        async def worker(index: int) -> None:
            for i in range(iterations):
                await loop.sleep(0)
                queue.put(index * iterations + i)
                await queue.get()

        loop.run_until_complete(gather(loop, [worker(t) for t in range(tasks)]))
    registry = observer.metrics
    assert registry is not None
    counters = registry.as_dict()["counters"]
    # The dispatch split is part of the deterministic gate: a change here
    # means the ready-deque fast path's hit pattern moved.
    return {
        "events": loop.events_processed,
        "ops": tasks * iterations * 2,  # two awaits per iteration
        "counters": {
            "tasks": tasks,
            "iterations": iterations,
            "ready_dispatches": counters["kernel.ready_dispatches"],
            "heap_dispatches": counters["kernel.heap_dispatches"],
        },
    }


@benchmark("abd-round", "ABD read/write rounds over a majority quorum")
def bench_abd_round(quick: bool) -> Mapping[str, Any]:
    clients, ops_per_client = (2, 25) if quick else (4, 150)
    cluster = build_static_cluster(
        _config(), latency=UniformLatency(0.5, 1.5, seed=11), client_count=clients
    )
    workload = uniform_workload(
        list(cluster.clients),
        operations_per_client=ops_per_client,
        read_ratio=0.5,
        mean_think_time=0.1,
        seed=11,
    )
    report = run_workload(cluster, workload)
    return {
        "events": cluster.loop.events_processed,
        "ops": report.operations,
        "counters": {"messages": cluster.network.messages_sent},
    }


@benchmark("sharded-zipfian", "zipfian keyed workload across shard groups")
def bench_sharded_zipfian(quick: bool) -> Mapping[str, Any]:
    shards, clients, ops_per_client = (2, 2, 20) if quick else (4, 4, 100)
    cluster = build_sharded_cluster(
        _config(),
        shards=shards,
        latency=UniformLatency(0.5, 1.5, seed=23),
        client_count=clients,
        flavour="static-majority",
    )
    generator = WorkloadGenerator(keys=ZipfianKeys(space=64, s=1.1))
    workload = generator.generate(
        list(cluster.clients), operations_per_client=ops_per_client, seed=23
    )
    report = run_workload(cluster, workload)
    assert report.imbalance is not None
    return {
        "events": cluster.loop.events_processed,
        "ops": report.operations,
        "counters": {
            "messages": cluster.network.messages_sent,
            "hottest_shard_load": report.imbalance.max_load,
        },
    }


def _synthetic_trace(clients: int, ops_each: int):
    """A deterministic, invariant-clean trace: quorum ops + transfers.

    Shaped like a real recorded run (operation spans around request/reply
    flows with quorum instants, occasional restarts and weight transfers)
    so the analyses exercise their real code paths, but built directly so
    the benchmark measures analysis throughput, not simulation.
    """
    from repro.obs import TraceRecorder

    recorder = TraceRecorder()
    servers = ("s1", "s2", "s3")
    t = 0.0

    def tick() -> float:
        nonlocal t
        t += 0.25
        return t

    for index in range(clients * ops_each):
        client = f"c{index % clients + 1}"
        kind = "read" if index % 2 else "write"
        recorder.emit(ts=tick(), cat="op", name=kind, ph="B", actor=client,
                      args={"protocol": "storage"})
        restarted = index % 7 == 0
        if restarted:
            flow = recorder.next_flow_id()
            recorder.emit(ts=tick(), cat="net", name="READ", ph="s",
                          actor=client, args={"to": servers[0]}, flow=flow)
            recorder.emit(ts=tick(), cat="net", name="READ", ph="f",
                          actor=servers[0], args={"from": client}, flow=flow)
            recorder.emit(ts=tick(), cat="op", name="restart", ph="i",
                          actor=client, args={"op": kind, "protocol": "storage"})
        requests = []
        for server in servers:
            flow = recorder.next_flow_id()
            requests.append((server, flow))
            recorder.emit(ts=t, cat="net", name="READ", ph="s", actor=client,
                          args={"to": server}, flow=flow)
        replies = []
        for server, flow in requests:
            recorder.emit(ts=tick(), cat="net", name="READ", ph="f",
                          actor=server, args={"from": client}, flow=flow)
            reply = recorder.next_flow_id()
            replies.append((server, reply))
            recorder.emit(ts=t, cat="net", name="READ-ACK", ph="s",
                          actor=server, args={"to": client}, flow=reply)
        for server, reply in replies:
            recorder.emit(ts=tick(), cat="net", name="READ-ACK", ph="f",
                          actor=client, args={"from": server}, flow=reply)
        recorder.emit(ts=t, cat="quorum", name="phase1", ph="i", actor=client,
                      args={"protocol": "storage", "size": len(servers)})
        recorder.emit(ts=t, cat="op", name=kind, ph="E", actor=client,
                      args={"contacted": len(servers),
                            "restarts": 1 if restarted else 0})
        if index % 10 == 0:
            source = servers[(index // 10) % len(servers)]
            target = servers[(index // 10 + 1) % len(servers)]
            recorder.emit(ts=t, cat="transfer", name="transfer", ph="B",
                          actor=source, args={"delta": 0.1, "target": target})
            recorder.emit(ts=tick(), cat="transfer", name="transfer", ph="E",
                          actor=source,
                          args={"delta": 0.1, "effective": True,
                                "target": target})
    return recorder.records


@benchmark("trace-analyze",
           "invariant checking + critical-path attribution over a trace")
def bench_trace_analyze(quick: bool) -> Mapping[str, Any]:
    from repro.obs import check_trace_invariants, critical_path_report

    clients, ops_each = (4, 25) if quick else (8, 250)
    records = _synthetic_trace(clients, ops_each)
    report = check_trace_invariants(records)
    assert report.ok, report.findings
    cpath = critical_path_report(records)
    path_steps = sum(op["path_length"] for op in cpath["operations"])
    return {
        # Two full passes over the record stream: one for the invariant
        # checker, one for the attributor.  events/sec is records/sec
        # through the analyses.
        "events": 2 * len(records),
        "ops": len(cpath["operations"]),
        "counters": {
            "records": len(records),
            "findings": len(report.findings),
            "path_steps": path_steps,
        },
    }


@benchmark("sweep", "serial parameter sweep through the experiment layer")
def bench_sweep(quick: bool) -> Mapping[str, Any]:
    from repro.experiments.executor import execute_many
    from repro.experiments.sweep import expand_grid

    seeds = [0, 1] if quick else [0, 1, 2, 3, 4, 5]
    # static-majority: the dynamic-weighted flavour's weight-gain refresh
    # recursion (see ROADMAP) aborts at a stack-depth-dependent point, which
    # would make the event count here depend on the caller's stack depth.
    runs = expand_grid(
        "quickstart",
        grid={"seed": seeds},
        base={
            "cluster.flavour": "static-majority",
            "transfers": (),
            "workload.operations_per_client": 4,
        },
    )
    # Each run executes on its own loop; the process-wide kernel counter
    # meters the total dispatch work across all of them.
    events_before = SimLoop.total_events_processed
    results = execute_many(runs, workers=1)
    events = SimLoop.total_events_processed - events_before
    operations = sum(result.result["operations"] for result in results)
    messages = sum(result.result["messages"] for result in results)
    return {
        "events": events,
        "ops": operations,
        "counters": {"runs": len(results), "messages": messages},
    }
