"""The benchmark's inputs, generated from its seed argument.

The program only ever sees what this module builds: scenario specs for the
two run workloads, sweep-job request bodies for ``serve-sweep`` and campaign
arguments for ``chaos-benign``.  The same seed always gives the same inputs;
a different seed gives different spec seeds, job seeds or LHS samples.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.join(HERE, "specs")

WORKLOADS = ("reassign-monitored", "sharded-reads", "serve-sweep", "chaos-benign")

#: Modules a user of each workload imports before the first request; the
#: set-up probe and the ``-X importtime`` subprocess import exactly these.
ENTRY_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "reassign-monitored": ("repro.experiments",),
    "sharded-reads": ("repro.experiments",),
    "serve-sweep": ("repro.experiments", "repro.serve", "repro.serve.client"),
    "chaos-benign": ("repro.chaos",),
}

#: Distinct run specs per seed.  Each run workload pools its modelled
#: latencies over these, so every kind has at least 1000 samples (about 240
#: writes per sharded-reads run).  reassign-monitored needs more: its p99
#: sits on the knee of a tail made by the ops caught in the mid-run slowdown,
#: and pooling eight runs narrows how far it moves from seed to seed.
RUN_INPUTS = {"reassign-monitored": 8, "sharded-reads": 5}

#: serve-sweep: distinct sweep jobs per seed, and runs per job.
SERVE_JOBS = 8
RUNS_PER_JOB = 16
SERVE_OPS_PER_CLIENT = 10
SERVE_WORKERS = 2

#: chaos-benign: distinct campaign seeds per seed, and the campaign's other
#: arguments.  One campaign judges only 17 short runs, so the benchmark
#: cycles through several to pool enough of them.  Campaigns differ in cost
#: by up to 20% (their fault configurations differ), so eight of them keep
#: the mix, and with it the rates, from moving much between seeds; they
#: also pool more than 1000 modelled latencies of each kind.
CAMPAIGNS = 8
CAMPAIGN = {"scenario": "quickstart", "sample": 16, "workers": 2, "benign": True}


def spec_seeds(count: int, seed: int) -> List[int]:
    return [seed * 1000 + index for index in range(count)]


def run_specs(workload: str, seed: int) -> List[Any]:
    """The run workload's specs: the benchmark's spec file, one per spec seed."""
    from repro.experiments import load_spec_file

    base = load_spec_file(os.path.join(SPECS, f"{workload}.json"))
    return [
        base.with_overrides({"seed": spec_seed})
        for spec_seed in spec_seeds(RUN_INPUTS[workload], seed)
    ]


def serve_spec() -> Dict[str, Any]:
    """The inline spec serve-sweep submits: sharded-reads cut to short runs."""
    from repro.experiments import load_spec_file

    spec = load_spec_file(os.path.join(SPECS, "sharded-reads.json")).with_overrides(
        {"workload.operations_per_client": SERVE_OPS_PER_CLIENT}
    )
    document = spec.to_dict()
    document["name"] = "perfbench-serve-sweep"
    return document


def serve_requests(seed: int) -> List[Dict[str, Any]]:
    """One ``POST /jobs`` body per distinct job: a 16-seed sweep."""
    spec = serve_spec()
    seeds = spec_seeds(SERVE_JOBS * RUNS_PER_JOB, seed)
    return [
        {
            "kind": "sweep",
            "spec": spec,
            "seeds": seeds[job * RUNS_PER_JOB:(job + 1) * RUNS_PER_JOB],
            "workers": SERVE_WORKERS,
        }
        for job in range(SERVE_JOBS)
    ]


def campaign_args(seed: int) -> List[Dict[str, Any]]:
    return [dict(CAMPAIGN, seed=campaign) for campaign in spec_seeds(CAMPAIGNS, seed)]
