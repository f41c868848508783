"""The four workloads, each driven through the entry points a user calls.

* ``reassign-monitored`` and ``sharded-reads`` call ``run_spec`` on the
  benchmark's own spec files;
* ``serve-sweep`` submits sweep jobs with ``ServeClient`` to a loopback
  ``ExperimentServer`` and streams their results back;
* ``chaos-benign`` calls ``run_campaign``.

A workload has a fixed set of distinct inputs (``distinct``); ``unit(i)``
executes input ``i % distinct`` once, times it and returns an
:class:`Outcome`.  Repeats of an input must reproduce its fingerprint
exactly, which is the first correctness check; ``checks`` adds the
workload's own.  Repro modules are imported inside methods, so that loading
this module costs the set-up probe nothing a user would not pay.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import inputs
from harness import RunCapture, Spans, digest, pinned


@dataclass
class Outcome:
    """One timed request: which input, how long, what it did."""

    key: int
    seconds: float
    ops: int
    runs: int
    attempted: int
    failed: int
    fingerprint: Any


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, spans: Optional[Spans] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spans = spans or Spans()
        self.capture = RunCapture()
        self.stack = contextlib.ExitStack()
        self.distinct = 1

    def start(self) -> None:
        """Everything before the first timed request (imports are done)."""

    def close(self) -> None:
        self.stack.close()

    def unit(self, index: int) -> Outcome:
        raise NotImplementedError

    def base_spec(self) -> Any:
        """The one spec the traced run measures layer by layer."""
        raise NotImplementedError

    def checks(self, outcomes: Sequence[Outcome]) -> Dict[str, bool]:
        """Workload-specific correctness checks over the timed outcomes."""
        return {}

    def latency_samples(self) -> Dict[str, List[float]]:
        """Per-operation modelled latencies pooled over the distinct inputs."""
        raise NotImplementedError


def repeats_agree(outcomes: Sequence[Outcome]) -> bool:
    """Every repeat of an input reproduced its first fingerprint."""
    first: Dict[int, Any] = {}
    for outcome in outcomes:
        if first.setdefault(outcome.key, outcome.fingerprint) != outcome.fingerprint:
            return False
    return True


def pool(samples: Sequence[Dict[str, List[float]]]) -> Dict[str, List[float]]:
    return {
        kind: [value for sample in samples for value in sample[kind]]
        for kind in ("read", "write")
    }


class RunWorkload(Workload):
    """``run_spec`` over the benchmark's spec file, one run per request."""

    #: Whether every run starts from a pinned stack depth (see ``pinned``).
    pinned_runs = False

    def __init__(self, name: str, seed: int, workdir: str, spans: Optional[Spans] = None) -> None:
        super().__init__(seed, workdir, spans)
        self.name = name
        self.specs = inputs.run_specs(name, seed)
        self.distinct = len(self.specs)
        self.results: Dict[int, Dict[str, Any]] = {}
        self.samples: Dict[int, Dict[str, List[float]]] = {}

    def start(self) -> None:
        self.stack.enter_context(self.capture.installed())

    def unit(self, index: int) -> Outcome:
        from repro.experiments import run_spec

        key = index % self.distinct
        with self.spans.span("run_spec", input=key):
            started = time.perf_counter()
            if self.pinned_runs:
                result = pinned(run_spec, self.specs[key])
            else:
                result = run_spec(self.specs[key])
            seconds = time.perf_counter() - started
        if key in self.results:
            self.capture.cluster = None
        else:
            self.results[key] = result
            self.samples[key] = self.capture.samples()
        generated = result["workload"]["operations"]
        completed = result["operations"]
        return Outcome(
            key=key,
            seconds=seconds,
            ops=completed,
            runs=1,
            attempted=generated,
            failed=generated - completed,
            fingerprint=(digest(result), result["messages"], completed),
        )

    def base_spec(self) -> Any:
        return self.specs[0]

    def latency_samples(self) -> Dict[str, List[float]]:
        pooled = pool(list(self.samples.values()))
        if len(self.samples) < self.distinct or min(map(len, pooled.values())) < 1000:
            raise RuntimeError(f"{self.name}: fewer than 1000 latency samples of a kind")
        return pooled

    def checks(self, outcomes: Sequence[Outcome]) -> Dict[str, bool]:
        return {"every generated op completed": all(o.failed == 0 for o in outcomes)}


class ReassignMonitored(RunWorkload):
    pinned_runs = True

    def __init__(self, seed: int, workdir: str, spans: Optional[Spans] = None) -> None:
        super().__init__("reassign-monitored", seed, workdir, spans)

    def checks(self, outcomes: Sequence[Outcome]) -> Dict[str, bool]:
        checks = super().checks(outcomes)
        conserved = True
        for key, result in self.results.items():
            config = self.specs[key].cluster.system_config()
            initial = sum(config.initial_weights.values())
            conserved &= abs(sum(result["weights"].values()) - initial) <= 1e-9
        checks["weight conserved"] = conserved
        return checks


class ShardedReads(RunWorkload):
    def __init__(self, seed: int, workdir: str, spans: Optional[Spans] = None) -> None:
        super().__init__("sharded-reads", seed, workdir, spans)

    def checks(self, outcomes: Sequence[Outcome]) -> Dict[str, bool]:
        checks = super().checks(outcomes)
        checks["per-shard loads sum to the op count"] = all(
            sum(shard["operations"] for shard in result["shards"])
            == result["operations"]
            for result in self.results.values()
        )
        return checks


class LoopbackServer:
    """An in-process ``repro.serve`` on a free loopback port."""

    def __init__(self, jobs_dir: str, workers: int) -> None:
        from repro.serve import ExperimentServer, ExperimentService
        from repro.serve.client import ServeClient

        self.service = ExperimentService(jobs_dir, workers=workers)
        self.server = ExperimentServer(("127.0.0.1", 0), self.service, quiet=True)
        self.service.start()
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="perfbench-http",
        )
        self.thread.start()
        self.client = ServeClient(f"http://127.0.0.1:{self.server.server_address[1]}")

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while not self.client.health().get("ok"):
            if time.monotonic() > deadline:
                raise RuntimeError("the loopback server never became healthy")
            time.sleep(0.01)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.service.shutdown()


def sorted_lines(body: bytes) -> List[bytes]:
    """A JSONL body's lines, newline included, in sorted order.

    With more than one worker a job streams its runs in completion order,
    so only the lines themselves, not their order, are deterministic.
    """
    return sorted(body.splitlines(keepends=True))


class ServeSweep(Workload):
    name = "serve-sweep"

    def __init__(self, seed: int, workdir: str, spans: Optional[Spans] = None) -> None:
        super().__init__(seed, workdir, spans)
        self.requests = inputs.serve_requests(seed)
        self.distinct = len(self.requests)
        self.server: Optional[LoopbackServer] = None
        self.boots = 0
        self.runs_completed = 0
        self.bodies: Dict[int, bytes] = {}
        self.samples: List[Dict[str, List[float]]] = []

    def start(self) -> None:
        self.boots += 1
        jobs_dir = os.path.join(self.workdir, f"jobs-{self.boots}")
        self.server = LoopbackServer(jobs_dir, workers=inputs.SERVE_WORKERS)
        self.server.wait_healthy()

    def close(self) -> None:
        if self.server is not None:
            counters = self.server.client.metrics()["counters"]
            self.runs_completed = counters.get("serve.runs_completed", 0)
            self.server.close()
            self.server = None
        super().close()

    def unit(self, index: int) -> Outcome:
        assert self.server is not None
        client = self.server.client
        key = index % self.distinct
        with self.spans.span("job", input=key):
            started = time.perf_counter()
            with self.spans.span("submit"):
                job = client.submit(self.requests[key])
            with self.spans.span("stream"):
                body = client.results_bytes(job["id"])
            seconds = time.perf_counter() - started
        state = client.job(job["id"])["state"]
        self.bodies.setdefault(key, body)
        entries = [json.loads(line) for line in body.splitlines()]
        good = [e for e in entries if "error" not in e["result"]]
        failed = inputs.RUNS_PER_JOB if state != "done" else inputs.RUNS_PER_JOB - len(good)
        return Outcome(
            key=key,
            seconds=seconds,
            ops=sum(e["result"]["operations"] for e in good),
            runs=len(entries),
            attempted=inputs.RUNS_PER_JOB,
            failed=failed,
            fingerprint=hashlib.sha256(b"".join(sorted_lines(body))).hexdigest(),
        )

    def base_spec(self) -> Any:
        from repro.experiments import ScenarioSpec

        return ScenarioSpec.from_dict(inputs.serve_spec()).with_overrides(
            {"seed": self.requests[0]["seeds"][0]}
        )

    def checks(self, outcomes: Sequence[Outcome]) -> Dict[str, bool]:
        """The streamed bytes equal the CLI sink over direct ``execute_run``."""
        from repro.experiments import execute_run, write_jsonl_line
        from repro.serve.schemas import JobRequest
        from repro.serve.service import expand_runs, resolve_scenario

        same = True
        self.samples = []
        with self.capture.installed():
            for key, body in sorted(self.bodies.items()):
                request = JobRequest.from_dict(self.requests[key])
                sink = io.StringIO()
                for run in expand_runs(request, resolve_scenario(request)):
                    write_jsonl_line(execute_run(run), sink)
                    self.samples.append(self.capture.samples())
                same &= sorted_lines(sink.getvalue().encode("utf-8")) == sorted_lines(body)
        return {"streamed lines equal execute_run + write_jsonl_line": same}

    def latency_samples(self) -> Dict[str, List[float]]:
        return pool(self.samples)


class ChaosBenign(Workload):
    name = "chaos-benign"

    def __init__(self, seed: int, workdir: str, spans: Optional[Spans] = None) -> None:
        super().__init__(seed, workdir, spans)
        self.campaigns = inputs.campaign_args(seed)
        self.distinct = len(self.campaigns)
        self.violations: List[int] = []
        self.degraded: Dict[int, int] = {}
        self.report_bytes: Dict[int, int] = {}
        self.samples: List[Dict[str, List[float]]] = []

    def close(self) -> None:
        from repro.experiments.executor import shutdown_pool

        shutdown_pool()
        super().close()

    def unit(self, index: int) -> Outcome:
        from repro.chaos import run_campaign

        key = index % self.distinct
        with self.spans.span("campaign", input=key):
            started = time.perf_counter()
            campaign = run_campaign(**self.campaigns[key])
            with self.spans.span("render"):
                report = "".join(line + "\n" for line in campaign.jsonl_lines())
            seconds = time.perf_counter() - started
        self.violations.append(campaign.violations)
        self.degraded[key] = campaign.header["campaign"]["degraded"]
        self.report_bytes[key] = len(report.encode("utf-8"))
        judged = [entry["oracles"]["result"] for entry in campaign.entries]
        ops = sum(j.get("operations") or 0 for j in judged if j["completed"])
        ops += campaign.header["baseline"]["operations"] or 0
        return Outcome(
            key=key,
            seconds=seconds,
            ops=ops,
            runs=len(judged) + 1,  # the sampled runs plus the baseline
            attempted=len(judged),
            failed=sum(1 for j in judged if not j["completed"]),
            fingerprint=hashlib.sha256(report.encode("utf-8")).hexdigest(),
        )

    def campaign_runs(self, args: Dict[str, Any]) -> List[Any]:
        """The baseline plus the sampled runs, exactly as the campaign draws them."""
        from repro.chaos.space import fault_axes
        from repro.experiments import RunSpec, Sweep, get_scenario

        scenario = args["scenario"]
        axes = fault_axes(get_scenario(scenario).spec, benign=args["benign"])
        sampled = Sweep.of(scenario, grid=axes).sample_lhs(args["sample"], seed=args["seed"])
        return [RunSpec(scenario=scenario)] + list(sampled)

    def base_spec(self) -> Any:
        from repro.experiments import get_scenario

        return get_scenario(inputs.CAMPAIGN["scenario"]).spec

    def checks(self, outcomes: Sequence[Outcome]) -> Dict[str, bool]:
        return {"zero oracle violations": all(v == 0 for v in self.violations)}

    def latency_samples(self) -> Dict[str, List[float]]:
        """Re-executes the campaigns' runs in-process, untraced, to pool them."""
        from repro.experiments import execute_run

        if not self.samples:
            with self.capture.installed():
                for args in self.campaigns:
                    for run in self.campaign_runs(args):
                        pinned(execute_run, run)
                        self.samples.append(self.capture.samples())
        return pool(self.samples)


WORKLOAD_TYPES = {
    "reassign-monitored": ReassignMonitored,
    "sharded-reads": ShardedReads,
    "serve-sweep": ServeSweep,
    "chaos-benign": ChaosBenign,
}


def make(name: str, seed: int, workdir: str, spans: Optional[Spans] = None) -> Workload:
    return WORKLOAD_TYPES[name](seed, workdir, spans)
