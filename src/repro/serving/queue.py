"""Priority job queue: the service's intake buffer.

Clients hand work to the :class:`~repro.serving.ExecutionService`
through this queue.  It is an unbounded priority queue:

* **priority** — lower numbers drain first (interactive traffic can cut
  ahead of bulk gradient sweeps); ties drain in submission order, so
  equal-priority traffic stays FIFO and exact-mode replays are
  deterministic;
* **close** — shutting the service closes the queue; the scheduler's
  consumer loop wakes immediately.

The queue holds one work item per structure group of each job.  It
has no bound of its own: the service's ``queue_capacity`` counts
admitted rows across the whole pipeline (this queue, the coalescing
buckets, executing flushes) and blocks ``submit`` before anything is
put here.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from time import monotonic as _monotonic


class QueueFull(RuntimeError):
    """A submission waited past its timeout for pipeline capacity."""


class QueueClosed(RuntimeError):
    """The queue was closed and cannot accept new work."""


class JobQueue:
    """Unbounded, thread-safe priority queue for service work items."""

    def __init__(self):
        self._heap: list[tuple[int, int, object]] = []
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # Telemetry.
        self.puts = 0
        self.gets = 0
        self.max_depth = 0

    def put(self, item, priority: int = 0) -> None:
        """Enqueue ``item``; lower ``priority`` drains first.

        Raises:
            QueueClosed: The queue was closed.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("queue is closed")
            heapq.heappush(
                self._heap, (int(priority), next(self._sequence), item)
            )
            self.puts += 1
            self.max_depth = max(self.max_depth, len(self._heap))
            self._not_empty.notify()

    def get_all(self, timeout: float | None = None) -> list:
        """Dequeue every queued item, highest priority first.

        One wakeup takes the whole backlog.  Returns ``[]`` on timeout,
        or when the queue closes while empty — consumers use that (plus
        :meth:`closed`) as their shutdown signal.
        """
        deadline = None if timeout is None else _monotonic() + timeout
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return []
                remaining = None
                if deadline is not None:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        return []
                self._not_empty.wait(remaining)
            heap = self._heap
            items = [heapq.heappop(heap)[2] for _ in range(len(heap))]
            self.gets += len(items)
            return items

    def close(self) -> None:
        """Refuse new work and wake every blocked consumer."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def stats(self) -> dict:
        """Telemetry snapshot."""
        with self._lock:
            return {
                "depth": len(self._heap),
                "max_depth": self.max_depth,
                "puts": self.puts,
                "gets": self.gets,
            }
