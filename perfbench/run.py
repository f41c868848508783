"""The repository's benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it uses the program under ``src/``.
With ``--trace 0`` it sets the workload up several times in fresh
interpreters (``setup_s``), then repeats the workload's requests for
``--seconds`` seconds and prints the end-to-end metrics.  With ``--trace 1``
it makes the separate traced run of ``traced.py`` and prints the per-layer
metrics.  Either way it checks that the program's outputs are correct, and
its last line of output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files live under ``.perfbench/`` in the checkout; spans of traced
runs are kept in ``.perfbench/spans/``.  See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "runs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "read_vt_p50": "vt",
    "read_vt_p99": "vt",
    "write_vt_p50": "vt",
    "write_vt_p99": "vt",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """From a fresh interpreter's launch until it can issue its first request."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), workdir],
        stdout=subprocess.PIPE,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def timed(name: str, seed: int, seconds: float, workdir: str) -> Dict[str, Any]:
    """The timed run: end-to-end metrics with every observer off."""
    import workloads
    from harness import latency_metrics, median, peak_rss_mb, percentile

    setups = [setup_seconds(name, seed, workdir) for _ in range(SETUP_PROBES)]
    wl = workloads.make(name, seed, workdir)
    wl.start()
    try:
        warmup = wl.unit(0)  # caches filled, pools spawned; not timed
        outcomes = []
        deadline = time.perf_counter() + seconds
        # At least one request per distinct input, which the pooled
        # latency metrics cover in full.
        while len(outcomes) < wl.distinct or time.perf_counter() < deadline:
            outcomes.append(wl.unit(len(outcomes) + 1))
    finally:
        wl.close()
    every = [warmup] + outcomes
    checks = {"repeats reproduce": workloads.repeats_agree(every)}
    checks.update(wl.checks(every))
    jobs = [o.seconds for o in outcomes]
    attempted = sum(o.attempted for o in every)
    failed = sum(o.failed for o in every)
    # Rates are totals over the timed requests: this host's speed switches
    # between a fast and a slow mode many times a second, and a median of
    # per-request rates jumps between the modes where a total does not.
    busy = sum(jobs)
    values = {
        "setup_s": median(setups),
        "ops_per_s": sum(o.ops for o in outcomes) / busy,
        "runs_per_s": sum(o.runs for o in outcomes) / busy,
        "job_s_p50": median(jobs),
        "job_s_p90": percentile(jobs, 0.9),
        **latency_metrics(wl.latency_samples()),
        "completed_frac": 1 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: (values[key], unit) for key, unit in END_TO_END.items()},
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(
            f"perfbench: no program source under {SOURCE}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SOURCE)
    workdir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    # Temporary files of the program (campaign traces) stay in the checkout.
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    try:
        if args.trace:
            import traced

            spans_dir = os.path.join(SCRATCH, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
            report = traced.run(args.workload, args.seed, workdir, spans_path)
        else:
            report = timed(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failing = [name for name, passed in report["checks"].items() if not passed]
    for name in failing:
        print(f"perfbench: correctness check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failing and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }))
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
