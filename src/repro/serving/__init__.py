"""Serving layer: async, coalesced, cached, multi-backend execution.

The production-serving subsystem on top of the batched engine::

    clients ──> ExecutionService.submit ──> JobQueue ──> CoalescingScheduler
                                                              │
                        ResultCache  ◄──  Router  ◄───────────┘
                                            │
                                       Backend pool

A job enters the unbounded queue as one work item per structure
group; ``queue_capacity``, counted in rows, is the only bound.

See :mod:`repro.serving.service` for the full architecture notes.
"""

from repro.serving.bench import concurrent_client_wall_time
from repro.serving.cache import ResultCache
from repro.serving.executor import ServiceExecutor
from repro.serving.queue import JobQueue, QueueClosed, QueueFull
from repro.serving.router import POLICIES, Router
from repro.serving.scheduler import CoalescingScheduler, WorkItem
from repro.serving.service import ExecutionService, ServiceJob

__all__ = [
    "CoalescingScheduler",
    "ExecutionService",
    "JobQueue",
    "POLICIES",
    "QueueClosed",
    "QueueFull",
    "ResultCache",
    "Router",
    "ServiceExecutor",
    "ServiceJob",
    "WorkItem",
    "concurrent_client_wall_time",
]
