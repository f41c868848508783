"""Integration tests for ``repro.obs``: passivity, determinism, spec + CLI.

The contract under test:

* **Passivity** — an installed observer only records; enabled runs produce
  exactly the same simulation results as disabled runs.
* **One dispatch loop** — ``SimLoop`` runs the same loop with or without an
  observer, so even a depth-sensitive run (one that reaches the recursion
  limit) gives the same result observed as plain; the ``event-loop`` /
  ``event-loop-obs`` benchmark twins do identical work.
* **Determinism** — traces are byte-stable across repeats, hash seeds, and
  serial vs parallel execution (churn-heavy runs included: every executed
  run starts from the executor's pinned stack).
* **Golden digest** — ``fig1-walkthrough``'s trace digest is pinned in
  ``benchmarks/baselines/fig1-walkthrough.trace.sha256``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.executor import run_with_stable_stack
from repro.experiments.spec import ObservabilitySpec, ScenarioSpec
from repro.net.latency import UniformLatency
from repro.obs import Observer, observing, read_trace, trace_digest
from repro.sim.cluster import build_dynamic_cluster
from repro.sim.runner import run_workload
from repro.sim.workload import uniform_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_TRACE_FILE = os.path.join(
    REPO_ROOT, "benchmarks", "baselines", "fig1-walkthrough.trace.sha256"
)


def _small_run(observer=None):
    """One small dynamic-cluster workload, optionally observed."""
    with observing(observer):
        config = SystemConfig(servers=("s1", "s2", "s3", "s4", "s5"), f=1)
        cluster = build_dynamic_cluster(
            config, latency=UniformLatency(0.5, 1.5, seed=7), client_count=3
        )
        workload = uniform_workload(
            list(cluster.clients), operations_per_client=5,
            read_ratio=0.7, mean_think_time=0.3, seed=7,
        )
        report = run_workload(cluster, workload)
    return cluster, report


# ---------------------------------------------------------------------------
# Passivity + kernel accounting
# ---------------------------------------------------------------------------


class TestPassivity:
    def test_observed_run_matches_unobserved_run(self):
        _, plain = _small_run(observer=None)
        _, observed = _small_run(observer=Observer())
        assert observed.operations == plain.operations
        assert observed.restarts == plain.restarts
        assert observed.messages_sent == plain.messages_sent
        assert observed.duration == plain.duration
        assert observed.read_latency == plain.read_latency
        assert observed.write_latency == plain.write_latency

    def test_observed_depth_sensitive_run_matches_plain_run(self):
        # A monitored dynamic-weighted run whose weight-gain refresh chain
        # reaches the recursion limit: its result depends on the stack depth
        # callbacks run at, so it shows any frame the observed path adds.
        from repro.experiments.spec import run_spec

        base = {
            "name": "depth-sensitive",
            "cluster": {"flavour": "dynamic-weighted", "n": 5, "f": 1,
                        "client_count": 4},
            "workload": {
                "operations_per_client": 200,
                "keys": {"kind": "hotspot", "space": 16,
                         "hot_fraction": 0.25, "hot_weight": 0.9},
                "arrivals": {"kind": "closed", "mean_think_time": 0.5},
                "mix": {"read_ratio": 0.5},
                "phases": [{"at": 1000.0, "overrides": [["keys.offset", 8]]}],
            },
            "latency": {"kind": "uniform", "low": 0.5, "high": 1.5,
                        "slow": ["s1", "s2"], "slow_factor": 6.0,
                        "slow_start": 1000.0},
            "monitoring": {"enabled": True, "interval": 50.0, "rounds": 20,
                           "policy": {"kind": "inverse-latency",
                                      "threshold": 0.05},
                           "gain": 0.3},
            "seed": 0,
            "max_time": 100000.0,
        }
        observed_spec = dict(
            base, observability={"enabled": True, "trace": False})
        plain = run_with_stable_stack(run_spec, ScenarioSpec.from_dict(base))
        observed = run_with_stable_stack(
            run_spec, ScenarioSpec.from_dict(observed_spec))
        assert observed.pop("metrics")["counters"]["kernel.events"] > 0
        assert observed == plain

    def test_unobserved_report_has_no_metrics(self):
        _, report = _small_run(observer=None)
        assert report.metrics is None

    def test_kernel_counters_account_for_every_event(self):
        observer = Observer()
        cluster, report = _small_run(observer=observer)
        counters = report.metrics["counters"]
        assert counters["kernel.events"] == cluster.loop.events_processed
        assert (counters["kernel.ready_dispatches"]
                + counters["kernel.heap_dispatches"]) == counters["kernel.events"]
        assert counters["net.sent"] == cluster.network.messages_sent
        assert counters["net.delivered"] == cluster.network.messages_delivered
        assert report.metrics["gauges"]["kernel.max_queue_depth"]["max"] > 0

    def test_quorum_and_storage_counters_match_the_workload(self):
        observer = Observer()
        _, report = _small_run(observer=observer)
        counters = report.metrics["counters"]
        # 3 clients x 5 ops, read_ratio deterministic per seed
        assert counters["storage.ops.read"] + counters["storage.ops.write"] == 15
        assert counters["storage.phase1"] == 15
        assert counters["storage.phase2"] == 15
        quorum = report.metrics["histograms"]["storage.quorum_size"]
        assert quorum["count"] == 30  # one observation per phase

    def test_weight_gain_refresh_depth_is_measured(self):
        # build_dynamic_cluster + weight transfers trigger the refresh;
        # drive one explicit transfer to exercise the hook.
        observer = Observer()
        with observing(observer):
            config = SystemConfig(servers=("s1", "s2", "s3", "s4", "s5"), f=1)
            cluster = build_dynamic_cluster(
                config, latency=UniformLatency(0.5, 1.5, seed=3), client_count=1
            )

            async def kick():
                await cluster.servers["s1"].transfer("s2", 0.2)

            cluster.loop.create_task(kick(), name="kick")
            cluster.loop.run()
        counters = observer.metrics.as_dict()["counters"]
        assert counters["protocol.transfers.effective"] >= 1
        assert counters["storage.weight_gain_refreshes"] >= 1
        depth = observer.metrics.as_dict()["gauges"]["storage.weight_gain_refresh_depth"]
        assert depth["max"] >= 1.0


class TestDisabledPathIsUntouched:
    """Without an observer the kernel does exactly the same dispatch work."""

    def test_benchmark_twins_do_identical_work(self):
        # The expectations file pins both, but assert the linkage directly:
        # the instrumented benchmark must process exactly as many events as
        # the uninstrumented one, at both scales.
        from repro.bench.core import run_benchmark

        for quick in (True, False):
            plain = run_benchmark("event-loop", quick=quick).deterministic_view()
            obs = run_benchmark("event-loop-obs", quick=quick).deterministic_view()
            assert obs["events"] == plain["events"]
            assert obs["ops"] == plain["ops"]
            assert (obs["counters"]["ready_dispatches"]
                    + obs["counters"]["heap_dispatches"]) == obs["events"]


# ---------------------------------------------------------------------------
# ObservabilitySpec + run_spec wiring
# ---------------------------------------------------------------------------


class TestObservabilitySpec:
    def test_defaults_off_and_round_trip(self):
        spec = ObservabilitySpec()
        assert spec.enabled is False
        assert ObservabilitySpec.from_dict(spec.to_dict()) == spec
        enabled = ObservabilitySpec(enabled=True, trace_messages=False)
        assert ObservabilitySpec.from_dict(enabled.to_dict()) == enabled

    def test_rejects_unknown_keys_and_useless_configs(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            ObservabilitySpec.from_dict({"bogus": 1})
        with pytest.raises(ConfigurationError, match="records nothing"):
            ObservabilitySpec(enabled=True, metrics=False, trace=False).validate()
        with pytest.raises(ConfigurationError):
            ObservabilitySpec(trace_path="out.jsonl").validate()  # not enabled

    def test_build_returns_none_when_disabled(self):
        assert ObservabilitySpec().build() is None
        observer = ObservabilitySpec(enabled=True, trace=False).build()
        assert observer.metrics is not None and observer.trace is None

    def test_scenario_spec_flatten_exposes_observability(self):
        spec = ScenarioSpec.from_dict(
            {"name": "t",
             "observability": {"enabled": True, "trace_messages": False}})
        flat = spec.flatten()
        assert flat["observability.enabled"] is True
        assert flat["observability.trace_messages"] is False


class TestRunSpecWiring:
    def test_disabled_result_has_no_observability_keys(self):
        from repro.experiments.spec import run_spec

        result = run_spec(ScenarioSpec(name="t"))
        assert "metrics" not in result and "trace" not in result

    def test_enabled_result_adds_blocks_without_changing_the_core(self):
        from repro.experiments.spec import run_spec

        plain = run_spec(ScenarioSpec(name="t"))
        spec = ScenarioSpec.from_dict(
            {"name": "t", "observability": {"enabled": True}})
        observed = run_spec(spec)
        metrics = observed.pop("metrics")
        trace = observed.pop("trace")
        assert observed == plain  # byte-identical core payload
        assert metrics["counters"]["kernel.events"] > 0
        assert trace["records"] > 0
        assert len(trace["digest"]) == 64

    def test_trace_path_writes_the_jsonl(self, tmp_path):
        from repro.experiments.spec import run_spec

        path = tmp_path / "spec.jsonl"
        spec = ScenarioSpec.from_dict(
            {"name": "t",
             "observability": {"enabled": True, "trace_path": str(path)}})
        result = run_spec(spec)
        records = read_trace(str(path))
        assert len(records) == result["trace"]["records"]
        assert trace_digest(records) == result["trace"]["digest"]


# ---------------------------------------------------------------------------
# CLI: run --trace / --metrics, sweep --trace-dir, trace subcommand
# ---------------------------------------------------------------------------


FAST = ["-p", "workload.operations_per_client=2"]


class TestCliTracing:
    def test_run_trace_writes_valid_jsonl_and_reports_digest(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "quickstart", *FAST, "--trace", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        records = read_trace(str(path))
        assert payload[0]["result"]["trace"]["digest"] == trace_digest(records)
        assert payload[0]["result"]["trace"]["records"] == len(records)

    def test_run_metrics_adds_counters(self, capsys):
        assert main(["run", "quickstart", *FAST, "--metrics"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload[0]["result"]["metrics"]["counters"]
        assert counters["kernel.events"] > 0

    def test_run_without_flags_keeps_result_clean(self, capsys):
        assert main(["run", "quickstart", *FAST]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload[0]["result"]
        assert "trace" not in payload[0]["result"]

    def test_trace_subcommand_summarises_and_exports(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "fig1-walkthrough", "--trace", str(path),
                     "--quiet"]) == 0
        capsys.readouterr()
        chrome = tmp_path / "chrome.json"
        assert main(["trace", "summary", str(path), "--export",
                     str(chrome)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == len(read_trace(str(path)))
        assert summary["digest"] == trace_digest(read_trace(str(path)))
        exported = json.loads(chrome.read_text())
        assert exported["traceEvents"]

    def test_trace_subcommand_rejects_corrupt_files(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nope": true}\n')
        assert main(["trace", "summary", str(path)]) == 2
        assert "invalid trace record" in capsys.readouterr().err

    def test_sweep_trace_dir_serial_equals_parallel(self, tmp_path):
        def sweep(workers, out_dir):
            args = ["sweep", "quickstart", "--seeds", "0,1", *FAST, "--quiet",
                    "--workers", str(workers), "--trace-dir", str(out_dir)]
            assert main(args) == 0

        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        sweep(1, serial)
        sweep(2, parallel)
        serial_files = sorted(os.listdir(serial))
        assert serial_files == sorted(os.listdir(parallel))
        assert len(serial_files) == 2
        for name in serial_files:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
            read_trace(str(serial / name))  # every per-run file is schema-valid

    def test_sweep_trace_dir_requires_spec_scenario(self, tmp_path, capsys):
        assert main(["sweep", "fig1-walkthrough", "--seeds", "0",
                     "--trace-dir", str(tmp_path / "t")]) == 2
        assert "declarative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Determinism: repeats, hash seeds, golden digest
# ---------------------------------------------------------------------------


def _golden_digest() -> str:
    with open(GOLDEN_TRACE_FILE, "r", encoding="utf-8") as handle:
        return handle.read().strip()


class TestTraceDeterminism:
    def test_repeated_runs_produce_identical_digests(self, tmp_path, capsys):
        digests = []
        for index in range(2):
            path = tmp_path / f"run{index}.jsonl"
            assert main(["run", "fig1-walkthrough", "--trace", str(path),
                         "--quiet"]) == 0
            capsys.readouterr()
            digests.append(trace_digest(read_trace(str(path))))
        assert digests[0] == digests[1]

    def test_fig1_walkthrough_matches_the_golden_digest(self, tmp_path, capsys):
        path = tmp_path / "golden.jsonl"
        assert main(["run", "fig1-walkthrough", "--trace", str(path),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _golden_digest()

    @pytest.mark.parametrize("hashseed", ["1", "999"])
    def test_digest_is_hashseed_independent(self, tmp_path, hashseed):
        path = tmp_path / f"seed{hashseed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig1-walkthrough",
             "--trace", str(path), "--quiet"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _golden_digest()
