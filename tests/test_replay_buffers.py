"""Plan replays recycle their state-sized buffers.

``repro.sim.compile`` takes every state-sized array of a replay from a
pool of recycled buffers: its thread's, or for a run whose largest
array is over ``_POOL_MAX`` one of the run's own.  The contract pinned
here:

* a warm replay makes (almost) no minor page faults;
* a result the caller holds is never handed out again, and a later
  replay leaves it unchanged; held results are not scanned per step;
* threads replaying at once never share a buffer: results equal the
  sequential ones bit for bit;
* between runs a thread keeps at most ``_POOL_FREE`` free buffers, none
  over ``_POOL_MAX`` and none over twice its largest recent run; a run
  over ``_POOL_MAX`` leaves the thread's pool alone.
"""

from __future__ import annotations

import statistics
import sys
import threading

import numpy as np
import pytest

import replay_cases
from repro.sim import BatchedStatevector
from repro.sim import compile as sim_compile

CASES = replay_cases.cases()
IDS = [case.name for case in CASES]

#: Warm replays may still fault on a page now and then (the readout's
#: and the fresh stack's small arrays); a recycling regression faults
#: on hundreds per call.
MAX_FAULTS = 16


def thread_pool() -> sim_compile._Buffers:
    return sim_compile._LOCAL.pool


def check_pool(pool) -> None:
    """Between runs the pool keeps at most ``_POOL_FREE`` free buffers,
    none over the cap or twice its largest recent run."""
    pool.begin(16 * pool.reserve)
    assert len(pool.bases) <= sim_compile._POOL_FREE
    for base in pool.bases:
        assert base.nbytes <= sim_compile._POOL_MAX
        assert base.size <= 2 * max(pool.recent)


def forward_state() -> np.ndarray:
    """The 4-row 10-qubit forward replay (64 KiB), as a caller holds it."""
    case = CASES[2]
    state = BatchedStatevector(case.sweep.n_qubits, case.sweep.size)
    return state.evolve(case.sweep, plan=case.plan).tensor


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="minor faults: Linux only"
)
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_warm_replay_makes_no_page_faults(case):
    faults = replay_cases.minor_faults(case.run, calls=20)
    assert statistics.median(faults) <= MAX_FAULTS, faults


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_held_result_is_never_reused(case):
    held = case.run()
    kept = [array.copy() for array in held]
    later = case.run()
    for mine, theirs, copy in zip(held, later, kept):
        assert not np.shares_memory(mine, theirs)
        assert np.array_equal(mine, copy)
        assert np.array_equal(theirs, copy)
    check_pool(thread_pool())


def test_threads_never_share_a_buffer():
    jobs = CASES + [replay_cases.cases(seed=1)[1]]
    sequential = [job.run() for job in jobs]
    threaded: list = [None] * len(jobs)
    pools: list = [None] * len(jobs)
    errors: list = []
    start = threading.Barrier(len(jobs), timeout=60)

    def replay(index):
        try:
            start.wait()
            threaded[index] = [jobs[index].run() for _ in range(3)]
            pool = thread_pool()
            check_pool(pool)
            pools[index] = pool.bases + pool.held
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=replay, args=(index,))
        for index in range(len(jobs))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    for expected, runs in zip(sequential, threaded):
        for result in runs:
            for a, b in zip(expected, result):
                assert np.array_equal(a, b)
    owned = [id(base) for bases in pools for base in bases]
    assert len(set(owned)) == len(owned)


def test_runs_over_the_cap_leave_the_thread_pool_alone(monkeypatch):
    forward_state()
    pool = thread_pool()
    before = [id(base) for base in pool.bases + pool.held]
    monkeypatch.setattr(sim_compile, "_POOL_MAX", (1 << 16) - 1)
    out = forward_state()
    assert out.nbytes > sim_compile._POOL_MAX
    assert [id(base) for base in pool.bases + pool.held] == before
    assert not any(
        np.shares_memory(out, base) for base in pool.bases + pool.held
    )


def test_small_runs_set_a_large_runs_buffers_loose():
    (large,) = CASES[1].run()
    limit = 2 * forward_state().size
    del large
    pool = thread_pool()
    # One smaller run, as within a training step, keeps them warm ...
    assert any(base.size > limit for base in pool.bases)
    for _ in range(sim_compile._POOL_RUNS):
        forward_state()
    check_pool(pool)
    # ... a run of smaller ones gives them back.
    assert all(base.size <= limit for base in pool.bases + pool.held)


def test_held_results_are_not_scanned_per_step():
    held = [forward_state() for _ in range(40)]
    pool = thread_pool()
    assert len(pool.held) >= 39
    assert len(pool.bases) <= sim_compile._POOL_FREE + 3
    for result in held:
        assert np.array_equal(result, held[0])
    del held, result
    check_pool(pool)
    assert not pool.held


def test_trie_rows_match_batch_of_one():
    for case in CASES[:2]:
        (tensor,) = case.run()
        for index in (0, 1, case.sweep.size // 2, case.sweep.size - 1):
            assert np.array_equal(tensor[index], case.row(index))


def test_pool_keeps_two_free_buffers_and_takes_the_smallest_fit():
    pool = sim_compile._Buffers().begin(16 << 14)
    held = [pool.empty((1 << 14,)) for _ in range(3)]
    held.append(pool.empty((1 << 15,)))
    assert [base.size for base in pool.bases] == [1 << 14] * 3 + [1 << 15]
    del held
    pool.begin(16 << 14)
    assert [base.size for base in pool.bases] == [1 << 15, 1 << 14]
    small = pool.empty((2, 1 << 12))
    assert small.base is pool.bases[1]
    large = pool.empty((1 << 14,))
    assert large.base is pool.bases[0]
    fresh = pool.empty((1 << 14,))
    assert fresh.base is pool.bases[2] and len(pool.bases) == 3
