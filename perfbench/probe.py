"""Set-up probe: a fresh interpreter's path to its first request.

``python3 perfbench/probe.py <workload> <seed> <workdir>`` imports the
workload's entry modules, loads its inputs and, for ``serve-sweep``, boots
the loopback server until ``/healthz`` answers; then it prints ``ready``.
The parent times the probe from its launch to that line (``setup_s``).
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402  (after the path set-up above)


def main(argv: list) -> int:
    workload, seed, workdir = argv[1], int(argv[2]), argv[3]
    for module in inputs.ENTRY_IMPORTS[workload]:
        importlib.import_module(module)
    server = None
    if workload in inputs.RUN_INPUTS:
        inputs.run_specs(workload, seed)
    elif workload == "serve-sweep":
        from workloads import LoopbackServer

        inputs.serve_requests(seed)
        jobs_dir = os.path.join(workdir, f"probe-jobs-{os.getpid()}")
        server = LoopbackServer(jobs_dir, workers=inputs.SERVE_WORKERS)
        server.wait_healthy()
    else:
        from repro.experiments import get_scenario

        get_scenario(inputs.CAMPAIGN["scenario"])
    print("ready", flush=True)
    if server is not None:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
