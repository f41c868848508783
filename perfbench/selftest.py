"""Quick-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that:

* a different seed gives every workload different inputs;
* every workload, at a one-second run length, prints a result line whose
  metrics are exactly those ``BENCHMARK.json`` names, each with its unit
  (end-to-end ones without tracing, per-layer ones with it), and that a
  different seed leaves that set of metrics unchanged;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result.

It takes a few minutes, most of them in the four traced runs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402  (after the path set-up above)


def result_line(workload, seed, trace, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return completed.returncode, completed.stdout.strip().splitlines()[-1:]


def workload_inputs(workload, seed):
    if workload in inputs.RUN_INPUTS:
        return [spec.to_dict() for spec in inputs.run_specs(workload, seed)]
    if workload == "serve-sweep":
        return inputs.serve_requests(seed)
    return inputs.campaign_args(seed)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(inputs.WORKLOADS):
        problems.append("BENCHMARK.json names other workloads")

    for workload in inputs.WORKLOADS:
        if workload_inputs(workload, 0) == workload_inputs(workload, 1):
            problems.append(f"{workload}: seeds 0 and 1 give the same inputs")
        seen = {}
        for seed, trace in ((0, 0), (1, 0), (0, 1)):
            code, last = result_line(workload, seed, trace)
            if code != 0 or not last:
                problems.append(f"{workload} seed {seed} trace {trace}: exit code {code}")
                continue
            result = json.loads(last[0])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} seed {seed} trace {trace}: not correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            seen.setdefault(trace, set(units))
            if seen[trace] != set(units):
                problems.append(f"{workload}: seed {seed} changed the set of metrics")
            print(f"ok  {workload} seed {seed} trace {trace}", flush=True)

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, last = result_line("sharded-reads", 0, 0, cwd=bare)
        if code == 0 or (last and last[0].startswith("{")):
            problems.append("a checkout without the program did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
