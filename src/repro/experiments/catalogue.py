"""The built-in scenario catalogue.

This module registers the paper's headline experiments as named scenarios —
the Fig. 1 walkthrough, WMQS-vs-MQS, epoch-vs-epochless reassignment and
dynamic-storage-vs-reconfiguration — together with a set of declarative
storage workloads (quickstart, static baselines, crash resilience).

The function scenarios here are the single source of truth for the
paper's experiments: ``tests/test_paper_claims.py`` executes them and
asserts the paper's shape claims on their result dicts.  Everything a
scenario returns is JSON-serialisable, so the sweep engine, the result
sinks and the CLI can all consume it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis import expected_quorum_latency, inverse_latency_weights
from repro.assettransfer import KAssetReplica, OneAssetServer
from repro.consensus.sequencer import Sequencer
from repro.core.reductions import OraclePairwiseReassignment, algorithm_config
from repro.core.spec import SystemConfig, check_rp_integrity
from repro.errors import ConfigurationError, DeadlockError, SimTimeoutError
from repro.experiments.registry import register_spec, scenario
from repro.experiments.sections import SpecSection
from repro.experiments.spec import (
    ArrivalSpec,
    ClusterSpec,
    FaultSpec,
    KeySpec,
    LatencySpec,
    MixSpec,
    PhaseSpec,
    ScenarioSpec,
    TransferEvent,
    WorkloadSpec,
    run_spec,
)
from repro.monitoring.controller import WeightController
from repro.monitoring.loop import install_monitoring_control
from repro.net.latency import (
    ConstantLatency,
    PerLinkLatency,
    SlowdownLatency,
    UniformLatency,
)
from repro.net.network import Network
from repro.net.simloop import SimLoop, gather
from repro.quorum.availability import minimum_quorum_cardinality
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.weighted import WeightedMajorityQuorumSystem
from repro.reassign.epoch_based import EpochBasedCoordinator, EpochBasedServer
from repro.sim.cluster import (
    build_dynamic_cluster,
    build_reassignment_fleet,
    build_sharded_cluster,
    build_static_cluster,
)
from repro.sim.metrics import summarize
from repro.sim.runner import run_workload
from repro.storage.sharded import shard_for_key, shard_process_name
from repro.storage.reconfigurable import (
    ReconfigurableStorageClient,
    ReconfigurableStorageServer,
)
from repro.types import server_set
from repro.workloads.arrivals import ClosedLoopArrivals, PoissonArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.keys import HotspotKeys
from repro.workloads.mix import OperationMix
from repro.workloads.phases import Phase
from repro.workloads.stats import workload_stats

__all__ = [
    "fig1_walkthrough",
    "wmqs_vs_mqs",
    "epoch_vs_epochless",
    "storage_vs_reconfig",
    "dynamic_storage_adaptation",
    "hotspot_shift_monitoring",
    "sharded_zipfian_imbalance",
    "sharded_hotspot_reassignment",
    "AssetTransferSpec",
    "asset_transfer",
]


# ---------------------------------------------------------------------------
# E1 — Fig. 1 / Example 2: the restricted pairwise reassignment walkthrough.
# ---------------------------------------------------------------------------

FIG1_ACCEPTED = (("s4", "s1", 0.2), ("s5", "s2", 0.2), ("s6", "s3", 0.2))
FIG1_REJECTED = (("s6", "s2", 0.2), ("s7", "s3", 0.3))


@scenario(
    "fig1-walkthrough",
    description="Fig. 1 / Example 2: three accepted transfers concentrate a "
    "minority quorum on {s1,s2,s3}; two more are rejected by RP-Integrity.",
    tags=("paper", "reassignment"),
)
def fig1_walkthrough(n: int = 7, f: int = 2) -> Dict[str, Any]:
    """Replay the paper's Fig. 1 transfer sequence and check RP-Integrity."""
    if n < 7:
        raise ConfigurationError(
            f"fig1-walkthrough replays the paper's fixed transfer requests on "
            f"servers s1..s7 and needs n >= 7, got n={n}"
        )
    fleet = build_reassignment_fleet(SystemConfig.uniform(n, f=f))

    async def run() -> List[Dict[str, Any]]:
        outcomes = []
        for source, target, delta in FIG1_ACCEPTED + FIG1_REJECTED:
            outcome = await fleet.servers[source].transfer(target, delta)
            outcomes.append(
                {
                    "source": source,
                    "target": target,
                    "delta": delta,
                    "expected_effective": (source, target, delta) in FIG1_ACCEPTED,
                    "effective": outcome.effective,
                    "latency": outcome.latency,
                }
            )
        return outcomes

    transfers = fleet.loop.run_until_complete(run())
    fleet.loop.run()  # let the broadcast echoes finish for an honest message count
    weights = fleet.servers["s1"].local_weights()
    quorum_system = WeightedMajorityQuorumSystem(weights)
    return {
        "transfers": transfers,
        "weights": {pid: weight for pid, weight in sorted(weights.items())},
        "messages": fleet.network.messages_sent,
        "minority_is_quorum": quorum_system.is_quorum(["s1", "s2", "s3"]),
        "smallest_quorum_size": quorum_system.smallest_quorum_size(),
        "rp_integrity": check_rp_integrity(
            weights, fleet.config.total_initial_weight, fleet.config.f
        ),
    }


# ---------------------------------------------------------------------------
# E5 — WMQS vs MQS expected quorum latency on WAN-like RTT vectors.
# ---------------------------------------------------------------------------

WAN_RTT_VECTORS: Dict[str, Dict[str, float]] = {
    "homogeneous LAN (5 sites)": {"s1": 1.0, "s2": 1.0, "s3": 1.0, "s4": 1.0, "s5": 1.0},
    "EU client, 2 near / 3 far (5 sites)": {"s1": 10.0, "s2": 12.0, "s3": 45.0, "s4": 80.0, "s5": 95.0},
    "WHEAT-like geo deployment (5 sites)": {"s1": 5.0, "s2": 8.0, "s3": 35.0, "s4": 70.0, "s5": 150.0},
    "7 sites, one fast continent": {
        "s1": 5.0, "s2": 6.0, "s3": 8.0, "s4": 60.0, "s5": 70.0, "s6": 90.0, "s7": 120.0,
    },
    "13 sites planet-scale": {
        f"s{i}": float(latency)
        for i, latency in enumerate(
            [5, 6, 8, 10, 12, 40, 55, 70, 80, 95, 110, 140, 180], start=1
        )
    },
}


@scenario(
    "wmqs-vs-mqs",
    description="Expected quorum latency and cardinality: plain majority vs "
    "inverse-latency weighted majority across WAN RTT vectors.",
    tags=("paper", "quorum", "analytic"),
)
def wmqs_vs_mqs(total_weight_per_server: float = 1.0) -> Dict[str, Any]:
    """Expected quorum latency, majority vs weighted, on WAN RTT vectors."""
    rows = []
    for name, rtt in WAN_RTT_VECTORS.items():
        servers = tuple(sorted(rtt, key=lambda s: int(s[1:])))
        n = len(servers)
        f = (n - 1) // 3 if n > 5 else 1
        mqs = MajorityQuorumSystem(servers)
        # Raise the per-server floor until the assignment tolerates f failures
        # (very skewed latency vectors need a higher floor to satisfy Property 1).
        weights = None
        for floor_fraction in (0.5, 0.6, 0.7, 0.8, 0.9):
            try:
                weights = inverse_latency_weights(
                    rtt,
                    total_weight=total_weight_per_server * n,
                    f=f,
                    floor_fraction=floor_fraction,
                )
                break
            except Exception:
                continue
        if weights is None:
            raise ConfigurationError(f"no feasible weight assignment for {name}")
        wmqs = WeightedMajorityQuorumSystem(weights)
        mqs_latency = expected_quorum_latency(mqs, rtt)
        wmqs_latency = expected_quorum_latency(wmqs, rtt)
        rows.append(
            {
                "scenario": name,
                "n": n,
                "f": f,
                "mqs_latency": mqs_latency,
                "wmqs_latency": wmqs_latency,
                "speedup": mqs_latency / wmqs_latency if wmqs_latency else 1.0,
                "mqs_quorum": mqs.quorum_size(),
                "wmqs_quorum": minimum_quorum_cardinality(weights),
            }
        )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# E7 — Epochless restricted pairwise reassignment vs the epoch-based baseline.
# ---------------------------------------------------------------------------

EPOCH_REQUESTS = (("s4", "s1", 0.1), ("s5", "s2", 0.1), ("s6", "s3", 0.1), ("s7", "s1", 0.1))


def _run_epochless(n: int, f: int) -> Dict[str, Any]:
    fleet = build_reassignment_fleet(SystemConfig.uniform(n, f=f))

    async def one(source: str, target: str, delta: float):
        return await fleet.servers[source].transfer(target, delta)

    outcomes = fleet.loop.run_until_complete(
        gather(fleet.loop, [one(*request) for request in EPOCH_REQUESTS])
    )
    fleet.loop.run()
    total = sum(fleet.servers["s1"].local_weights().values())
    mean_latency = sum(o.latency for o in outcomes) / len(outcomes)
    return {"protocol": "restricted pairwise (paper)", "epoch": "-",
            "mean_latency": mean_latency, "total_weight": total, "leaked": 0.0}


def _run_epoch_based(
    n: int, f: int, epoch_length: float, crash_issuer: bool = False
) -> Dict[str, Any]:
    config = SystemConfig.uniform(n, f=f)
    loop = SimLoop()
    network = Network(loop, ConstantLatency(1.0))
    coordinator = EpochBasedCoordinator("coord", network, config, epoch_length)
    servers = {pid: EpochBasedServer(pid, network, config, "coord") for pid in config.servers}

    latencies: List[float] = []

    async def one(source: str, target: str, delta: float) -> None:
        started = loop.now
        await servers[source].transfer(target, delta)
        latencies.append(loop.now - started)

    async def run() -> None:
        tasks = [loop.create_task(one(*request)) for request in EPOCH_REQUESTS]
        if crash_issuer:
            await loop.sleep(epoch_length * 0.5)
            network.crash("s4")
        for task in tasks:
            if not crash_issuer:
                await task

    loop.run_until_complete(run())
    loop.run(until=loop.now + 3 * epoch_length)
    coordinator.stop()
    loop.run(until=loop.now + epoch_length + 1)
    label = f"{epoch_length:.0f}" + (" +crash" if crash_issuer else "")
    return {
        "protocol": "epoch-based [11]",
        "epoch": label,
        "mean_latency": sum(latencies) / len(latencies) if latencies else float("nan"),
        "total_weight": coordinator.total_weight(),
        "leaked": coordinator.leaked_weight,
    }


@scenario(
    "epoch-vs-epochless",
    description="Reassignment completion latency and weight preservation: the "
    "paper's epochless protocol vs an epoch-based baseline at several epoch "
    "lengths, including a crashed issuer that leaks weight.",
    tags=("paper", "reassignment", "baseline"),
)
def epoch_vs_epochless(
    n: int = 7,
    f: int = 2,
    epoch_lengths: Sequence[float] = (5.0, 20.0, 80.0),
    crash_epoch_length: float = 20.0,
) -> Dict[str, Any]:
    """Compare reassignment latency and weight leakage across protocols."""
    if n < 7:
        raise ConfigurationError(
            f"epoch-vs-epochless issues its fixed transfer requests from "
            f"servers s4..s7 and needs n >= 7, got n={n}"
        )
    rows = [_run_epochless(n, f)]
    for epoch_length in epoch_lengths:
        rows.append(_run_epoch_based(n, f, epoch_length))
    rows.append(_run_epoch_based(n, f, crash_epoch_length, crash_issuer=True))
    return {"rows": rows}


# ---------------------------------------------------------------------------
# E8 — Dynamic-weighted storage vs reconfigurable storage availability.
# ---------------------------------------------------------------------------

RECONFIG_SCHEDULES: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("no crashes", (), ()),
    ("f=2 crashes, none touching the pending change", ("s4", "s5"), ("s4", "s5")),
    ("f=2 crashes hitting the newly added servers", ("s4", "s5"), ("s6", "s7")),
)


def _dynamic_stays_live(crashes: Sequence[str]) -> bool:
    config = SystemConfig.uniform(5, f=2)
    cluster = build_dynamic_cluster(config, client_count=1)
    client = cluster.any_client()

    async def run() -> Any:
        await client.write("seed")
        await cluster.servers["s1"].transfer("s3", 0.2)  # an in-flight "operator action"
        for pid in crashes:
            cluster.network.crash(pid)
        await client.write("after-crashes")
        return await client.read()

    try:
        value = cluster.loop.run_until_complete(run(), max_time=10_000.0)
        return value == "after-crashes"
    except (DeadlockError, SimTimeoutError):
        return False


def _reconfigurable_stays_live(crashes: Sequence[str]) -> bool:
    loop = SimLoop()
    network = Network(loop, ConstantLatency(1.0))
    everyone = server_set(8)
    initial = server_set(5)
    for pid in everyone:
        ReconfigurableStorageServer(pid, network, initial)
    client = ReconfigurableStorageClient("c1", network, initial, everyone)

    async def run() -> Any:
        await client.write("seed")
        # The operator proposes replacing s3/s4/s5 with s6/s7 (a pending config).
        await client.reconfigure(("s1", "s2", "s6", "s7"))
        for pid in crashes:
            network.crash(pid)
        await client.write("after-crashes")
        return await client.read()

    try:
        value = loop.run_until_complete(run(), max_time=10_000.0)
        return value == "after-crashes"
    except (DeadlockError, SimTimeoutError):
        return False


@scenario(
    "storage-vs-reconfig",
    description="Liveness under crash schedules: the dynamic-weighted store's "
    "static fault threshold vs the reconfigurable store's pending-configuration "
    "majority condition.",
    tags=("paper", "storage", "baseline"),
)
def storage_vs_reconfig() -> Dict[str, Any]:
    """Liveness under crash schedules: dynamic-weighted vs reconfigurable."""
    rows = []
    for name, dynamic_crashes, reconfig_crashes in RECONFIG_SCHEDULES:
        rows.append(
            {
                "schedule": name,
                "dynamic": _dynamic_stays_live(dynamic_crashes),
                "reconfigurable": _reconfigurable_stays_live(reconfig_crashes),
            }
        )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# E6 — Case study: dynamic-weighted storage vs static baselines under slowdown.
# ---------------------------------------------------------------------------

CASE_STUDY_RTT = {"s1": 1.0, "s2": 1.0, "s3": 4.0, "s4": 5.0, "s5": 30.0}
CASE_STUDY_WEIGHTS = {"s1": 1.6, "s2": 1.6, "s3": 0.7, "s4": 0.7, "s5": 0.4}


def _case_study_latency(slow_at: float, slow_factor: float, seed: int) -> SlowdownLatency:
    table = {}
    for server, one_way in CASE_STUDY_RTT.items():
        for peer in ("c1", "c2", "s1", "s2", "s3", "s4", "s5"):
            if peer != server:
                table[(peer, server)] = one_way
                table[(server, peer)] = one_way
    base = PerLinkLatency(table, default=1.0, jitter=0.02, seed=seed)
    return SlowdownLatency(base, slow=["s1", "s2"], factor=slow_factor, start_at=slow_at)


def _case_study_flavour(
    flavour: str,
    slow_at: float,
    slow_factor: float,
    operations: int,
    seed: int,
) -> Dict[str, Any]:
    config = SystemConfig(
        servers=tuple(sorted(CASE_STUDY_WEIGHTS, key=lambda s: int(s[1:]))),
        f=1,
        initial_weights=dict(CASE_STUDY_WEIGHTS),
    )
    latency = _case_study_latency(slow_at, slow_factor, seed)
    if flavour == "dynamic-weighted":
        cluster = build_dynamic_cluster(config, latency=latency, client_count=2)
    else:
        cluster = build_static_cluster(
            config, latency=latency, client_count=2,
            weighted=(flavour == "static-weighted"),
        )
    loop = cluster.loop
    before: List[float] = []
    after: List[float] = []

    async def client_loop(client: Any) -> None:
        for index in range(operations):
            bucket = before if loop.now < slow_at else after
            if index % 3 == 0:
                await client.write(f"{client.pid}-{index}")
            else:
                await client.read()
            bucket.append(client.history[-1].latency)
            await loop.sleep(3.0)

    async def reassigner() -> None:
        if flavour != "dynamic-weighted":
            return
        await loop.sleep(slow_at + 20.0)
        # The degraded servers push their weight to the healthy ones.
        await cluster.servers["s1"].transfer("s3", 0.8)
        await cluster.servers["s2"].transfer("s4", 0.8)

    tasks = [client_loop(client) for client in cluster.clients.values()]
    tasks.append(reassigner())
    loop.run_until_complete(gather(loop, tasks))
    return {
        "flavour": flavour,
        "before": summarize(before).median,
        "after": summarize(after).median,
        "after_p95": summarize(after).p95,
    }


@scenario(
    "dynamic-storage-adaptation",
    description="Client latency before/after the two fast servers degrade: "
    "static majority vs static weighted vs the paper's dynamic-weighted "
    "storage, which re-points quorums mid-run.",
    tags=("paper", "storage", "case-study"),
)
def dynamic_storage_adaptation(
    slow_at: float = 150.0,
    slow_factor: float = 8.0,
    operations: int = 60,
    seed: int = 11,
) -> Dict[str, Any]:
    """The E6 case study: client latency before/after two servers degrade."""
    return {
        "rows": [
            _case_study_flavour(flavour, slow_at, slow_factor, operations, seed)
            for flavour in ("static-majority", "static-weighted", "dynamic-weighted")
        ]
    }


# ---------------------------------------------------------------------------
# Declarative storage workloads.
# ---------------------------------------------------------------------------

register_spec(
    ScenarioSpec(
        name="quickstart",
        description="A small dynamic-weighted cluster (n=5, f=1) running a "
        "seeded read/write mix with one mid-run weight transfer.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=2),
        workload=WorkloadSpec(operations_per_client=10, mix=MixSpec(read_ratio=0.5)),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        transfers=(TransferEvent(at=5.0, source="s1", target="s2", delta=0.25),),
        seed=7,
    ),
    tags=("storage", "smoke"),
)

register_spec(
    ScenarioSpec(
        name="static-majority-baseline",
        description="Classical ABD over the plain majority quorum system "
        "(n=5): the MQS baseline every weighted variant is compared against.",
        cluster=ClusterSpec(flavour="static-majority", n=5, client_count=2),
        workload=WorkloadSpec(operations_per_client=20, mix=MixSpec(read_ratio=0.7)),
        latency=LatencySpec(kind="lognormal", median=1.0, sigma=0.4),
    ),
    tags=("storage", "baseline"),
)

register_spec(
    ScenarioSpec(
        name="static-weighted-baseline",
        description="Classical ABD over a static WMQS with WHEAT-style skewed "
        "weights (n=5, f=1): fast while the weights match reality.",
        cluster=ClusterSpec(
            flavour="static-weighted",
            n=5,
            f=1,
            client_count=2,
            initial_weights=(
                ("s1", 1.6), ("s2", 1.6), ("s3", 0.7), ("s4", 0.7), ("s5", 0.4),
            ),
        ),
        workload=WorkloadSpec(operations_per_client=20, mix=MixSpec(read_ratio=0.7)),
        latency=LatencySpec(kind="lognormal", median=1.0, sigma=0.4),
    ),
    tags=("storage", "baseline"),
)

register_spec(
    ScenarioSpec(
        name="crash-resilience",
        description="The dynamic-weighted store stays live while at most f "
        "servers crash mid-workload (n=5, f=2, two crashes at t=10).",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=2, client_count=2),
        workload=WorkloadSpec(operations_per_client=15, mix=MixSpec(read_ratio=0.5)),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        faults=FaultSpec(crashes=(("s4", 10.0), ("s5", 10.0))),
        max_time=10_000.0,
    ),
    tags=("storage", "failures"),
)


# ---------------------------------------------------------------------------
# Workload-driven scenarios: skewed keys, open-loop arrivals, hotspot shifts.
# ---------------------------------------------------------------------------

register_spec(
    ScenarioSpec(
        name="skewed-reassignment",
        description="Zipfian key popularity (s=1.2 over 32 keys) stressing the "
        "dynamic-weighted store while two mid-run transfers re-point quorums; "
        "the result carries the achieved skew next to the latencies.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=3),
        workload=WorkloadSpec(
            operations_per_client=12,
            keys=KeySpec(kind="zipfian", space=32, zipf_s=1.2),
            arrivals=ArrivalSpec(kind="closed", mean_think_time=1.0),
            mix=MixSpec(read_ratio=0.7),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        transfers=(
            TransferEvent(at=6.0, source="s1", target="s2", delta=0.2),
            TransferEvent(at=9.0, source="s3", target="s2", delta=0.15),
        ),
        seed=13,
    ),
    tags=("storage", "workload", "skew"),
)

register_spec(
    ScenarioSpec(
        name="open-loop-saturation",
        description="Open-loop Poisson arrivals (rate 0.5/client over 4 "
        "clients) drive the store regardless of completion times, so queueing "
        "delay — not arrival spacing — absorbs the slack as load approaches "
        "capacity.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=4),
        workload=WorkloadSpec(
            operations_per_client=15,
            keys=KeySpec(kind="uniform", space=16),
            arrivals=ArrivalSpec(kind="poisson", rate=0.5),
            mix=MixSpec(read_ratio=0.5),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=5,
        max_time=10_000.0,
    ),
    tags=("storage", "workload", "open-loop"),
)

register_spec(
    ScenarioSpec(
        name="hotspot-shift",
        description="A hotspot workload (25% of keys take 90% of traffic) "
        "whose hot set rotates to the opposite half of the key space at t=12 "
        "via a workload phase — the declarative form of a mid-run skew flip.",
        cluster=ClusterSpec(flavour="dynamic-weighted", n=5, f=1, client_count=2),
        workload=WorkloadSpec(
            operations_per_client=16,
            keys=KeySpec(kind="hotspot", space=16, hot_fraction=0.25, hot_weight=0.9),
            phases=(PhaseSpec(at=12.0, overrides=(("keys.offset", 8),)),),
        ),
        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=21,
    ),
    tags=("storage", "workload", "skew"),
)


# ---------------------------------------------------------------------------
# Key-sharded storage: load imbalance and per-shard reassignment.
# ---------------------------------------------------------------------------


@scenario(
    "sharded-zipfian-imbalance",
    description="Key-sharded storage under zipfian vs uniform keys at equal "
    "op counts: skew concentrates load on few shards (hottest-shard share "
    "well above 1/shards) while uniform keys stay near the fair share.",
    tags=("storage", "workload", "sharding"),
)
def sharded_zipfian_imbalance(
    shards: int = 4,
    n: int = 3,
    f: int = 1,
    client_count: int = 3,
    operations: int = 40,
    space: int = 256,
    zipf_s: float = 1.2,
    seed: int = 17,
) -> Dict[str, Any]:
    """Run the same sharded deployment twice — zipfian keys, then uniform —
    and report each run's per-shard load vector and imbalance summary."""
    if shards < 2:
        raise ConfigurationError(
            f"the imbalance comparison needs at least 2 shards, got {shards}"
        )
    rows = []
    for kind in ("zipfian", "uniform"):
        spec = ScenarioSpec(
            name=f"sharded-{kind}",
            cluster=ClusterSpec(
                flavour="dynamic-weighted",
                n=n,
                f=f,
                client_count=client_count,
                shards=shards,
            ),
            workload=WorkloadSpec(
                operations_per_client=operations,
                keys=KeySpec(kind=kind, space=space, zipf_s=zipf_s),
                mix=MixSpec(read_ratio=0.6),
            ),
            latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
            seed=seed,
        )
        result = run_spec(spec)
        imbalance = result["imbalance"]
        rows.append(
            {
                "keys": kind,
                "shard_loads": [entry["operations"] for entry in result["shards"]],
                "hottest_shard": imbalance["hottest_shard"],
                "hottest_share": imbalance["hottest_share"],
                "imbalance_ratio": imbalance["imbalance_ratio"],
                "load_variance": imbalance["load_variance"],
                "load_cv": imbalance["load_cv"],
                "messages": result["messages"],
                "top1_key_share": result["workload"]["keys"]["top1_share"],
            }
        )
    return {
        "shards": shards,
        "fair_share": 1.0 / shards,
        "operations_per_run": operations * client_count,
        "rows": rows,
    }


@scenario(
    "sharded-hotspot-reassignment",
    description="Per-shard reassignment state in action: when the hot set "
    "rotates onto another shard and that shard's fast servers degrade, only "
    "its monitoring-driven WeightControllers re-point quorums — the cold "
    "shards keep their initial weights.",
    tags=("storage", "monitoring", "sharding"),
)
def sharded_hotspot_reassignment(
    shards: int = 2,
    n: int = 5,
    f: int = 1,
    shift_at: float = 20.0,
    slow_factor: float = 6.0,
    operations: int = 24,
    arrival_rate: float = 0.5,
    probe_interval: float = 6.0,
    control_rounds: int = 8,
    seed: int = 3,
) -> Dict[str, Any]:
    """Per-shard monitoring + controllers rebalance only the slowed hot shard."""
    if operations < 1:
        raise ConfigurationError(f"need at least one operation, got {operations}")
    if control_rounds < 1:
        raise ConfigurationError(f"need at least one control round, got {control_rounds}")
    if shards < 2:
        raise ConfigurationError(
            f"per-shard reassignment needs at least 2 shards, got {shards}"
        )
    space = 16
    before_keys = HotspotKeys(space=space, hot_fraction=0.25, hot_weight=0.9)
    after_keys = before_keys.shifted(8)

    def hot_shard(distribution: HotspotKeys) -> int:
        votes = [shard_for_key(key, shards) for key in distribution.hot_keys()]
        return max(set(votes), key=votes.count)

    hot_before = hot_shard(before_keys)
    hot_after = hot_shard(after_keys)
    # The infrastructure event is correlated with the workload shift: the two
    # "fast" servers of the shard the hotspot lands on degrade at shift_at.
    slowed = [shard_process_name(pid, hot_after) for pid in ("s1", "s2")]
    # Mild jitter (+-10%): inverse-latency targets stay within the controller
    # tolerance until the genuine slowdown kicks in, so any weight movement in
    # the result is attributable to the infrastructure event, not noise.
    latency = SlowdownLatency(
        UniformLatency(0.9, 1.1, seed=seed),
        slow=slowed,
        factor=slow_factor,
        start_at=shift_at,
    )
    cluster = build_sharded_cluster(
        SystemConfig.uniform(n, f=f),
        shards=shards,
        latency=latency,
        client_count=2,
        flavour="dynamic-weighted",
    )

    # One independent monitoring loop per shard: its own prober, its own
    # latency monitor, and one WeightController per shard server.  Nothing is
    # shared across shards — exactly the per-shard reassignment state the
    # sharded store exists to exercise.  The tolerance is wide enough that
    # latency *jitter* never triggers a transfer — only a genuine slowdown
    # does — so cold shards provably keep their initial weights.
    controllers_by_shard: Dict[int, List[WeightController]] = {
        group.index: install_monitoring_control(
            cluster.loop,
            cluster.network,
            group.servers,
            group.config,
            prober_pid=f"mon#{group.index}",
            rounds=control_rounds,
            interval=probe_interval,
            tolerance=0.2,
            max_step=0.3,
        )
        for group in cluster.shards
    }

    # Open-loop Poisson arrivals: issue times are absolute virtual times, so
    # the phase boundary at shift_at falls where it says it does and the
    # arrival stream does not bend when the slowed shard's latencies grow.
    generator = WorkloadGenerator(
        keys=before_keys,
        arrivals=PoissonArrivals(rate=arrival_rate),
        mix=OperationMix(read_ratio=0.6),
        phases=(Phase(start=shift_at, keys=after_keys),),
    )
    workload = generator.generate(tuple(cluster.clients), operations, seed=seed)
    report = run_workload(cluster, workload, max_time=10_000.0)
    cluster.loop.run()  # drain trailing control rounds and broadcast echoes

    # Per-shard load before/after the shift, bucketed by the operations'
    # *generated issue times* (a client queuing behind the slowed shard may
    # start an op later than its arrival, but where load lands was decided
    # at generation — and every generated op completes within max_time).
    loads_before = [0] * shards
    loads_after = [0] * shards
    for op in workload.operations:
        issued_at = op.issue_at if op.issue_at is not None else 0.0
        bucket = loads_before if issued_at < shift_at else loads_after
        bucket[shard_for_key(op.key, shards)] += 1

    shard_weights = cluster.shard_weights()
    transfers_by_shard = {
        index: sum(
            1
            for controller in controllers
            for step in controller.reports
            if step.attempted
        )
        for index, controllers in controllers_by_shard.items()
    }
    slowed_weight = sum(
        shard_weights[hot_after][pid] for pid in ("s1", "s2")
    )
    return {
        "operations": report.operations,
        "duration": report.duration,
        "messages": report.messages_sent,
        "hot_shard_before": hot_before,
        "hot_shard_after": hot_after,
        "slowed_servers": slowed,
        "shard_loads_before_shift": loads_before,
        "shard_loads_after_shift": loads_after,
        "imbalance": report.imbalance.as_dict() if report.imbalance else None,
        "shard_weights": {
            str(index): weights for index, weights in sorted(shard_weights.items())
        },
        "transfers_attempted_by_shard": {
            str(index): count for index, count in sorted(transfers_by_shard.items())
        },
        "slowed_servers_weight": slowed_weight,
        "workload": workload_stats(workload),
    }


@scenario(
    "hotspot-shift-monitoring",
    description="Monitoring-driven reassignment under a workload shift: when "
    "the hot set flips and s1/s2 degrade, latency probes feed the "
    "inverse-latency policy and per-server controllers push weight to the "
    "healthy servers.",
    tags=("workload", "monitoring", "storage"),
)
def hotspot_shift_monitoring(
    shift_at: float = 30.0,
    slow_factor: float = 6.0,
    operations: int = 18,
    probe_interval: float = 6.0,
    control_rounds: int = 8,
    seed: int = 3,
) -> Dict[str, Any]:
    """Close the monitoring loop on a single-register hotspot shift."""
    if operations < 1:
        raise ConfigurationError(f"need at least one operation, got {operations}")
    if control_rounds < 1:
        raise ConfigurationError(f"need at least one control round, got {control_rounds}")
    config = SystemConfig.uniform(5, f=1)
    latency = SlowdownLatency(
        UniformLatency(0.5, 1.5, seed=seed),
        slow=["s1", "s2"],
        factor=slow_factor,
        start_at=shift_at,
    )
    cluster = build_dynamic_cluster(config, latency=latency, client_count=2)
    controllers = install_monitoring_control(
        cluster.loop,
        cluster.network,
        cluster.servers,
        config,
        prober_pid="mon",
        rounds=control_rounds,
        interval=probe_interval,
        tolerance=0.05,
        max_step=0.3,
    )

    # The workload mirrors the infrastructure event: the hot set rotates at
    # shift_at, the moment s1/s2 degrade.
    generator = WorkloadGenerator(
        keys=HotspotKeys(space=16, hot_fraction=0.25, hot_weight=0.9),
        arrivals=ClosedLoopArrivals(mean_think_time=2.0),
        mix=OperationMix(read_ratio=0.6),
        phases=(
            Phase(start=shift_at, keys=HotspotKeys(space=16, hot_fraction=0.25,
                                                   hot_weight=0.9, offset=8)),
        ),
    )
    workload = generator.generate(tuple(cluster.clients), operations, seed=seed)
    report = run_workload(cluster, workload, max_time=10_000.0)
    cluster.loop.run()  # drain trailing control rounds and broadcast echoes

    before: List[float] = []
    after: List[float] = []
    for client in cluster.clients.values():
        for record in client.history:
            (before if record.completed_at < shift_at else after).append(record.latency)
    weights = {
        pid: weight
        # s1's local view: the same vantage point run_spec reports, so the
        # spec-file port of this scenario reproduces the result exactly.
        for pid, weight in sorted(cluster.servers["s1"].local_weights().items())
    }
    transfers_attempted = sum(
        1 for controller in controllers
        for step in controller.reports if step.attempted
    )
    return {
        "operations": report.operations,
        "duration": report.duration,
        "messages": report.messages_sent,
        "weights": weights,
        "shifted_weight": sum(weights[pid] for pid in ("s3", "s4", "s5")),
        "transfers_attempted": transfers_attempted,
        "latency_before_shift": summarize(before).median if before else None,
        "latency_after_shift": summarize(after).median if after else None,
        "workload": workload_stats(workload),
    }


# ---------------------------------------------------------------------------
# E9 — Section VIII: the relationship with asset transfer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssetTransferSpec(SpecSection):
    """The Section VIII comparator as a custom Spec v2 section.

    Asset transfer does not fit the cluster-plus-workload mold, so instead of
    forcing it into :class:`ScenarioSpec` this section demonstrates the other
    way the uniform protocol composes: any frozen dataclass inheriting
    :class:`~repro.experiments.sections.SpecSection` gets serialization,
    dotted-path flattening and validation for free and only supplies its own
    ``build``.  Three sub-experiments share the section's parameters:

    * a ring of 1-owner transfers (consensus-free, reliable broadcast only);
    * two conflicting k-owner overdraws (sequencer-ordered, resolved
      identically everywhere);
    * two pairwise weight reassignments that both keep every "balance"
      non-negative, of which the second is still rejected — the
      P-Integrity *distribution* constraint asset transfer lacks.
    """

    n: int = 5
    initial_balance: float = 10.0
    ring_amount: float = 3.0
    shared_balance: float = 10.0
    overdraw: float = 7.0
    reassign_n: int = 7
    reassign_f: int = 2
    reassign_delta: float = 0.4

    def _validate(self) -> None:
        if self.n < 3:
            raise ConfigurationError(
                "asset-transfer rings three transfers around s1..s3 and "
                f"needs n >= 3, got {self.n}"
            )
        if self.initial_balance < 0 or self.shared_balance < 0:
            raise ConfigurationError("asset-transfer balances must be non-negative")
        for label, amount in (("ring_amount", self.ring_amount),
                              ("overdraw", self.overdraw),
                              ("reassign_delta", self.reassign_delta)):
            if amount <= 0:
                raise ConfigurationError(f"{label} must be positive, got {amount}")

    def _run_one_asset(self) -> Dict[str, Any]:
        loop = SimLoop()
        network = Network(loop, ConstantLatency(1.0))
        ids = [f"s{i}" for i in range(1, self.n + 1)]
        servers = {
            pid: OneAssetServer(
                pid, network, ids, 1, {p: self.initial_balance for p in ids}
            )
            for pid in ids
        }

        async def run() -> List[Any]:
            return await gather(loop, [
                servers["s1"].transfer("s2", self.ring_amount),
                servers["s2"].transfer("s3", self.ring_amount),
                servers["s3"].transfer("s1", self.ring_amount),
            ])

        outcomes = loop.run_until_complete(run())
        loop.run()
        total = self.initial_balance * self.n
        totals = {pid: server.book.total() for pid, server in servers.items()}
        return {
            "applied": sum(1 for outcome in outcomes if outcome.applied),
            "mean_latency": sum(o.latency for o in outcomes) / len(outcomes),
            "total_conserved": all(abs(t - total) < 1e-9 for t in totals.values()),
            "messages": network.messages_sent,
        }

    def _run_k_asset(self) -> Dict[str, Any]:
        loop = SimLoop()
        network = Network(loop, ConstantLatency(1.0))
        ids = [f"s{i}" for i in range(1, 5)]
        Sequencer("seq", network, ids)
        balances = {"shared": self.shared_balance, "sink": 0.0}
        owners = {"shared": ids[:2], "sink": ids}
        replicas = {
            pid: KAssetReplica(pid, network, "seq", balances, owners) for pid in ids
        }

        async def run() -> List[Any]:
            # Two owners race to overdraw the shared account; the sequencer
            # orders them, so exactly one applies when 2*overdraw exceeds it.
            return await gather(loop, [
                replicas["s1"].transfer("shared", "sink", self.overdraw),
                replicas["s2"].transfer("shared", "sink", self.overdraw),
            ])

        outcomes = loop.run_until_complete(run())
        loop.run()
        final = {pid: replica.balance_of("shared") for pid, replica in replicas.items()}
        return {
            "applied": sum(1 for outcome in outcomes if outcome.applied),
            "consistent": len(set(final.values())) == 1,
            "mean_latency": sum(o.latency for o in outcomes) / len(outcomes),
            "final_shared_balance": final["s1"],
        }

    def _run_pairwise(self) -> Dict[str, Any]:
        loop = SimLoop()
        config = algorithm_config(self.reassign_n, self.reassign_f)
        oracle = OraclePairwiseReassignment(loop, config)

        async def run() -> Tuple[Any, Any]:
            # Both transfers keep every "balance" non-negative, yet the second
            # is rejected: it would give the f heaviest servers half the
            # voting power.
            first = await oracle.transfer("s3", "s3", "s1", self.reassign_delta)
            second = await oracle.transfer("s4", "s4", "s1", self.reassign_delta)
            return first, second

        first, second = loop.run_until_complete(run())
        return {
            "first_effective": first[0].delta != 0,
            "second_effective": second[0].delta != 0,
            "balances_non_negative": all(
                weight >= 0 for weight in oracle.current_weights().values()
            ),
        }

    def build(self) -> Dict[str, Any]:
        """Run all three sub-experiments and return their result blocks."""
        return {
            "one_asset": self._run_one_asset(),
            "k_asset": self._run_k_asset(),
            "pairwise": self._run_pairwise(),
        }


@scenario(
    "asset-transfer",
    description="Section VIII (E9): the same transfer workload through "
    "consensus-free 1-owner asset transfer and sequencer-ordered k-owner "
    "accounts, vs pairwise weight reassignment's extra P-Integrity "
    "distribution constraint.",
    tags=("paper", "asset-transfer", "baseline"),
)
def asset_transfer(
    n: int = 5,
    initial_balance: float = 10.0,
    ring_amount: float = 3.0,
    shared_balance: float = 10.0,
    overdraw: float = 7.0,
    reassign_n: int = 7,
    reassign_f: int = 2,
    reassign_delta: float = 0.4,
) -> Dict[str, Any]:
    """Run the Section VIII comparator (built on the AssetTransferSpec section)."""
    return AssetTransferSpec(
        n=n,
        initial_balance=initial_balance,
        ring_amount=ring_amount,
        shared_balance=shared_balance,
        overdraw=overdraw,
        reassign_n=reassign_n,
        reassign_f=reassign_f,
        reassign_delta=reassign_delta,
    ).validate().build()
