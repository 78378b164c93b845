"""Multi-client throughput of the async ExecutionService.

Eight concurrent clients each push a stream of single-circuit
submissions — the paper's Sec. 3.2 serving pattern, where every
parameter-shift circuit is "created, validated, queued, and finally
run" through a provider queue.  The direct baseline gives every client
its own synchronous ``Backend.run`` loop (each call a one-circuit
batch, so no vectorization is possible); the service path routes the
same submissions through the coalescing scheduler, which regroups the
cross-client traffic into large same-structure batches for the batched
engine, then replays a warm wave against the exact-result cache.

Both wall times are reported; the asserts are behavioural: exact-mode
results bit-identical to the direct path, cross-client coalescing into
batches larger than any one client could form, and a warm cache hit
rate > 0 in the service stats.  End-to-end serving throughput is
tracked by the ``serve_sharded`` workload of the ``perfbench`` ledger.
"""

from __future__ import annotations

import numpy as np

from harness import format_table, smoke_scaled
from repro.circuits import QuantumCircuit
from repro.hardware import IdealBackend
from repro.serving import ExecutionService, concurrent_client_wall_time

N_QUBITS = 8
N_CLIENTS = 8
SUBMISSIONS_PER_CLIENT = smoke_scaled(48, 16)
REPLAYS_PER_CLIENT = max(2, SUBMISSIONS_PER_CLIENT // 4)
ROUNDS = smoke_scaled(3, 2)
#: Flush size: the fresh wave (N_CLIENTS x SUBMISSIONS_PER_CLIENT
#: circuits of one structure) splits into whole size flushes of two
#: clients' worth each, so flush composition never depends on thread
#: timing.  A 2 ms deadline split the wave by timing instead, and the
#: largest flush occasionally fell below one client's submissions.
FLUSH = 2 * SUBMISSIONS_PER_CLIENT
#: Safety net only: the fresh wave flushes by size.
MAX_DELAY_S = 1.0


def build_workloads() -> list[list[QuantumCircuit]]:
    """Per-client same-structure circuits, distinct angle values."""
    rng = np.random.default_rng(11)
    workloads = []
    for _ in range(N_CLIENTS):
        circuits = []
        for _ in range(SUBMISSIONS_PER_CLIENT):
            circuit = QuantumCircuit(N_QUBITS)
            for wire in range(N_QUBITS):
                circuit.add("ry", wire, float(rng.uniform(0, np.pi)))
            for wire in range(N_QUBITS - 1):
                circuit.add("cx", (wire, wire + 1))
            circuits.append(circuit)
        workloads.append(circuits)
    return workloads


def run_clients(client) -> float:
    """Wall time for all clients (shared gated-thread methodology)."""
    return concurrent_client_wall_time(N_CLIENTS, client)


def time_direct(workloads) -> tuple[float, list[list]]:
    """Each client drives its own synchronous backend, one run per circuit."""
    backends = [IdealBackend(exact=True) for _ in range(N_CLIENTS)]
    collected: list[list] = [None] * N_CLIENTS

    def client(index):
        backend = backends[index]
        results = []
        for circuit in workloads[index]:
            results.extend(backend.run([circuit], purpose="serve"))
        for circuit in workloads[index][:REPLAYS_PER_CLIENT]:
            results.extend(backend.run([circuit], purpose="serve"))
        collected[index] = results

    best = np.inf
    for _ in range(ROUNDS):
        elapsed = run_clients(client)
        best = min(best, elapsed)
    return best, collected


def time_service(workloads) -> tuple[float, list[list], dict]:
    """Same clients, async submissions through one shared service."""
    best = np.inf
    collected: list[list] = [None] * N_CLIENTS
    stats = None
    for _ in range(ROUNDS):
        service = ExecutionService(
            IdealBackend(exact=True),
            max_batch_size=FLUSH,
            max_delay_s=MAX_DELAY_S,
        )

        def client(index):
            jobs = [
                service.submit([circuit], purpose="serve")
                for circuit in workloads[index]
            ]
            results = []
            for job in jobs:
                results.extend(job.result())
            # Warm wave: replay the first submissions; by now their
            # results sit in the exact-result cache.
            replay_jobs = [
                service.submit([circuit], purpose="serve")
                for circuit in workloads[index][:REPLAYS_PER_CLIENT]
            ]
            for job in replay_jobs:
                results.extend(job.result())
            collected[index] = results

        with service:
            elapsed = run_clients(client)
            stats = service.stats()
        best = min(best, elapsed)
    return best, collected, stats


def test_service_throughput_8_clients(benchmark):
    workloads = build_workloads()
    direct_s, direct_results = benchmark.pedantic(
        lambda: time_direct(workloads), rounds=1, iterations=1
    )
    service_s, service_results, stats = time_service(workloads)

    n_total = N_CLIENTS * (SUBMISSIONS_PER_CLIENT + REPLAYS_PER_CLIENT)
    speedup = direct_s / service_s
    print()
    print(format_table(
        ["path", "wall_s", "circuits", "circuits_per_s"],
        [
            ["direct (8 threads)", direct_s, n_total,
             int(n_total / direct_s)],
            ["service (coalesced)", service_s, n_total,
             int(n_total / service_s)],
        ],
        title=(
            f"ExecutionService: {N_CLIENTS} clients x "
            f"{SUBMISSIONS_PER_CLIENT}+{REPLAYS_PER_CLIENT} submissions, "
            f"{N_QUBITS} qubits"
        ),
    ))
    scheduler = stats["scheduler"]
    cache = stats["cache"]
    print(
        f"speedup: {speedup:.1f}x | "
        f"flushes: {scheduler['flushes']} "
        f"(largest batch {scheduler['largest_batch']}) | "
        f"cache hit rate: {cache['hit_rate']:.1%}"
    )

    # Exact-mode results bit-identical to the direct path.
    for direct_list, service_list in zip(direct_results, service_results):
        assert len(direct_list) == len(service_list)
        for want, got in zip(direct_list, service_list):
            assert np.array_equal(want.expectations, got.expectations)
            assert want.counts == got.counts == {}

    # Cross-client coalescing actually happened: batches beyond what any
    # single blocking client could produce.
    assert scheduler["largest_batch"] > SUBMISSIONS_PER_CLIENT

    # The warm wave was served from cache.
    assert cache["hits"] > 0
    assert cache["hit_rate"] > 0
    assert stats["circuits_from_cache"] >= N_CLIENTS
