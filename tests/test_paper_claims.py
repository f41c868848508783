"""The paper's experiments E1–E11 as shape assertions.

The paper reports no absolute numbers, so each test regenerates one
experiment and asserts the *shape* of its result — who wins, by roughly what
factor, where the crossover falls.  Most run a registered scenario from
:mod:`repro.experiments.catalogue`; the rest drive the protocol objects
directly.  Claims already checked elsewhere live there instead:

* E2 (Example 1) — ``tests/test_reductions.py::TestOracleWeightReassignment``;
* E9/E10 (asset transfer) — ``tests/test_spec_v2.py::TestAssetTransferScenario``.
"""

from __future__ import annotations

from repro.core.protocol import ReassignmentServer, read_changes
from repro.core.reductions import (
    OraclePairwiseReassignment,
    OracleWeightReassignment,
    algorithm1_propose,
    algorithm2_propose,
    algorithm_config,
)
from repro.core.spec import SystemConfig
from repro.experiments import get_scenario
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.process import Process
from repro.net.registers import SWMRRegisterArray
from repro.net.simloop import SimLoop, gather
from repro.sim.cluster import build_reassignment_fleet


# ---------------------------------------------------------------------------
# E1 — Fig. 1 / Example 2: the restricted pairwise reassignment walkthrough
# ---------------------------------------------------------------------------


def test_fig1_example2():
    result = get_scenario("fig1-walkthrough").execute()

    # The paper's accepted/rejected split and the minority quorum.
    assert [row["effective"] for row in result["transfers"]] == [True, True, True, False, False]
    assert all(
        row["effective"] == row["expected_effective"] for row in result["transfers"]
    )
    assert result["minority_is_quorum"]
    assert result["smallest_quorum_size"] == 3
    assert result["rp_integrity"]


# ---------------------------------------------------------------------------
# E3 — Algorithm 1 / Theorem 1: consensus from weight reassignment
# ---------------------------------------------------------------------------


def test_algorithm1_reduction():
    for n, f in [(4, 1), (7, 2), (10, 3), (13, 4)]:
        loop = SimLoop()
        config = algorithm_config(n, f)
        registers = SWMRRegisterArray(config.servers)
        oracle = OracleWeightReassignment(loop, config)
        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm1_propose(loop, config, registers, oracle, i, f"value-{i}")
                    for i in range(1, n + 1)
                ],
            )
        )
        effective = sum(
            1
            for record in oracle.trace
            if any(change.delta != 0 for change in record.created)
        )
        assert len(decisions) == n                 # Termination
        assert len(set(decisions)) == 1            # Agreement
        assert effective == 1                      # the reduction's pivot
        assert decisions[0].startswith("value-")   # Validity


# ---------------------------------------------------------------------------
# E4 — Algorithm 2 / Theorem 2: consensus from pairwise weight reassignment
# ---------------------------------------------------------------------------


def test_algorithm2_reduction():
    for n, f in [(7, 2), (10, 3), (13, 4)]:
        loop = SimLoop()
        config = algorithm_config(n, f)
        registers = SWMRRegisterArray(config.servers)
        oracle = OraclePairwiseReassignment(loop, config)
        decisions = loop.run_until_complete(
            gather(
                loop,
                [
                    algorithm2_propose(loop, config, registers, oracle, i, f"value-{i}")
                    for i in range(1, n + 1)
                ],
            )
        )
        # Count only the 0.4-transfers issued by members of S \ F (the
        # intra-F 0.1 shuffles may also target s1 and are always effective).
        effective_into_s1 = sum(
            1
            for record in oracle.trace
            if record.requested[2] == 0.4 and any(c.delta != 0 for c in record.created)
        )
        total_drift = max(
            abs(sum(record.weights_after.values()) - config.total_initial_weight)
            for record in oracle.trace
        )
        decided_index = int(decisions[0].split("-")[1])
        assert len(set(decisions)) == 1
        assert effective_into_s1 == 1
        assert decided_index > f  # the decided value originates outside F
        assert total_drift < 1e-9


# ---------------------------------------------------------------------------
# E5 — WMQS beats MQS on heterogeneous wide-area latencies
# ---------------------------------------------------------------------------


def test_wmqs_vs_mqs():
    rows = get_scenario("wmqs-vs-mqs").execute()["rows"]

    for row in rows:
        # WMQS never does worse than MQS.
        assert row["wmqs_latency"] <= row["mqs_latency"] + 1e-9
        assert row["wmqs_quorum"] <= row["mqs_quorum"]
    # Homogeneous case: no advantage (crossover point).
    assert rows[0]["speedup"] == 1.0
    # Every skewed case: strict advantage.
    assert all(row["speedup"] > 1.0 for row in rows[1:])


# ---------------------------------------------------------------------------
# E6 — Case study (Section VII): dynamic-weighted storage vs. static baselines
# ---------------------------------------------------------------------------


def test_dynamic_storage_adapts():
    rows = get_scenario("dynamic-storage-adaptation").execute(
        {"slow_at": 150.0, "slow_factor": 8.0, "operations": 60, "seed": 11}
    )["rows"]

    majority, static_weighted, dynamic = rows
    # Before the slowdown, weighted quorums (static or dynamic) beat plain majority.
    assert static_weighted["before"] <= majority["before"] + 1e-6
    assert dynamic["before"] <= majority["before"] + 1e-6
    # After the slowdown the dynamic variant recovers: it beats the static
    # weighted deployment, whose weights still sit on the degraded servers.
    assert dynamic["after"] < static_weighted["after"]


# ---------------------------------------------------------------------------
# E7 — Epochless RPWR vs. the epoch-based protocol of related work [11]
# ---------------------------------------------------------------------------


def test_epoch_vs_epochless():
    n = 7
    rows = get_scenario("epoch-vs-epochless").execute(
        {"n": n, "f": 2, "epoch_lengths": [5.0, 20.0, 80.0], "crash_epoch_length": 20.0}
    )["rows"]

    epochless = rows[0]
    epoch_rows = rows[1:4]
    crash_row = rows[4]
    # Epochless latency is a few message delays and beats every epoch setting.
    assert epochless["mean_latency"] <= min(row["mean_latency"] for row in epoch_rows)
    # Epoch-based latency grows with the epoch length (monotone in the sweep).
    latencies = [row["mean_latency"] for row in epoch_rows]
    assert latencies == sorted(latencies)
    # Weight preservation: the paper's protocol keeps the total constant ...
    assert abs(epochless["total_weight"] - n) < 1e-9
    # ... while a crashed issuer leaks weight in the epoch-based baseline.
    assert crash_row["total_weight"] < n - 1e-9
    assert crash_row["leaked"] > 0


# ---------------------------------------------------------------------------
# E8 — Section VIII: dynamic-weighted vs. reconfigurable storage availability
# ---------------------------------------------------------------------------


def test_storage_vs_reconfigurable():
    rows = get_scenario("storage-vs-reconfig").execute()["rows"]

    assert rows[0]["dynamic"] and rows[0]["reconfigurable"]
    # f crashes: the dynamic-weighted store always survives ...
    assert rows[1]["dynamic"] and rows[2]["dynamic"]
    # ... and so does the reconfigurable store while its pending configuration
    # keeps a majority, but the same number of crashes placed inside the
    # pending configuration's membership blocks it.
    assert rows[1]["reconfigurable"]
    assert not rows[2]["reconfigurable"]


# ---------------------------------------------------------------------------
# E9 — Section V-C: the restricted protocol cannot always shrink quorums
# ---------------------------------------------------------------------------

LIMITATION_WEIGHTS = {"s1": 1.6, "s2": 1.4, "s3": 0.8, "s4": 0.8, "s5": 0.8,
                      "s6": 0.8, "s7": 0.8}


def _smallest_quorum_avoiding(weights, avoid):
    usable = {server: weight for server, weight in weights.items() if server not in avoid}
    total = sum(weights.values())
    accumulated, count = 0.0, 0
    for weight in sorted(usable.values(), reverse=True):
        accumulated += weight
        count += 1
        if accumulated > total / 2:
            return count
    return None  # no quorum without the avoided servers


def test_limitation_with_slow_heavy_servers():
    config = SystemConfig(
        servers=tuple(sorted(LIMITATION_WEIGHTS, key=lambda s: int(s[1:]))),
        f=2, initial_weights=dict(LIMITATION_WEIGHTS),
    )
    loop = SimLoop()
    network = Network(loop, ConstantLatency(1.0))
    servers = {pid: ReassignmentServer(pid, network, config) for pid in config.servers}

    before = _smallest_quorum_avoiding(LIMITATION_WEIGHTS, avoid={"s1", "s2"})

    async def try_to_shrink():
        # The healthy servers try every RP-legal move they have: they can only
        # shuffle their *own* 0.8 weights among themselves, never touch s1/s2
        # (C1), and C2 caps what they may give away at the 0.7 bound.
        await servers["s3"].transfer("s4", 0.05)
        await servers["s5"].transfer("s6", 0.05)
        await servers["s4"].transfer("s3", 0.2)

    loop.run_until_complete(try_to_shrink())
    loop.run()
    after = _smallest_quorum_avoiding(servers["s3"].local_weights(), avoid={"s1", "s2"})

    assert before == 5
    assert after == 5  # the restriction prevents any improvement


# ---------------------------------------------------------------------------
# E11 — Protocol micro-costs: message complexity and latency vs. n
# ---------------------------------------------------------------------------


def test_protocol_costs():
    rows = []
    for n in [4, 7, 10, 16, 25]:
        fleet = build_reassignment_fleet(SystemConfig.uniform(n, f=(n - 1) // 3))
        loop, network, config, servers = fleet.loop, fleet.network, fleet.config, fleet.servers
        client = Process("c1", network)

        async def one_transfer():
            network.reset_stats()
            return await servers["s1"].transfer("s2", 0.05)

        outcome = loop.run_until_complete(one_transfer())
        loop.run()  # let the broadcast echo finish for an honest message count
        transfer_messages = network.messages_sent

        async def one_read():
            network.reset_stats()
            started = loop.now
            await read_changes(client, "s2", config)
            return loop.now - started

        read_latency = loop.run_until_complete(one_read())
        rows.append({
            "transfer_latency": outcome.latency,
            "transfer_messages": transfer_messages,
            "read_latency": read_latency,
            "read_messages": network.messages_sent,
        })

    latencies = [row["transfer_latency"] for row in rows]
    # Constant number of message delays, independent of n.
    assert max(latencies) - min(latencies) < 1e-9
    read_latencies = [row["read_latency"] for row in rows]
    assert max(read_latencies) - min(read_latencies) < 1e-9
    # Message complexity grows superlinearly for transfer, linearly for reads.
    assert rows[-1]["transfer_messages"] > rows[0]["transfer_messages"] * 4
    assert rows[-1]["read_messages"] < rows[0]["read_messages"] * 12
