"""Async job handles: ``POST /sweep`` returns one, ``GET /jobs/<id>``
polls it, ``POST /jobs/<id>/cancel`` cancels it.

A :class:`ServiceJob` wraps an :class:`asyncio.Task`; the table keeps a
bounded history of finished jobs so a client polling a moment after
completion still finds its result.  Cancellation is cooperative at the
request granularity: sub-requests not yet executing are abandoned, the
one currently on the execution lane's worker thread runs to completion
(a fork pool cannot be safely interrupted mid-portfolio) and its
result is discarded.
"""

from __future__ import annotations

import asyncio
import itertools
import secrets
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from .protocol import ProtocolError

__all__ = ["ServiceJob", "JobTable",
           "JOB_QUEUED", "JOB_RUNNING", "JOB_DONE", "JOB_FAILED",
           "JOB_CANCELLED"]

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"


@dataclass
class ServiceJob:
    """One asynchronous unit of server work."""

    id: str
    kind: str
    state: str = JOB_QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    total: int = 1
    done: int = 0
    result: Optional[object] = None
    error: Optional[str] = None
    task: Optional[asyncio.Task] = None

    def describe(self) -> Dict[str, object]:
        """The ``GET /jobs/<id>`` body."""
        body: Dict[str, object] = {
            "id": self.id, "kind": self.kind, "state": self.state,
            "total": self.total, "done": self.done,
        }
        if self.started is not None and self.finished is not None:
            body["wall_seconds"] = round(self.finished - self.started, 6)
        if self.state == JOB_DONE:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        return body


class JobTable:
    """Live and recently-finished jobs, keyed by id.

    Finished jobs are bounded two ways so a long-lived daemon's job
    table cannot leak: at most ``max_finished`` are retained (oldest
    evicted first) and none longer than ``ttl_seconds``.  ``max_live``
    is the admission-control bound: creating a job beyond it is load
    shedding (HTTP 429 with a ``Retry-After`` hint), not queueing.
    Evictions are counted for the metrics endpoint.
    """

    def __init__(self, max_finished: int = 256,
                 ttl_seconds: Optional[float] = 3600.0,
                 max_live: Optional[int] = None):
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ProtocolError(
                f"job ttl_seconds must be > 0, got {ttl_seconds}",
                status=500)
        self.max_finished = max_finished
        self.ttl_seconds = ttl_seconds
        self.max_live = max_live
        self.evictions = 0
        self._jobs: Dict[str, ServiceJob] = {}
        self._ids = itertools.count(1)

    def create(self, kind: str, total: int = 1) -> ServiceJob:
        self._prune()
        if self.max_live is not None and self.live() >= self.max_live:
            raise ProtocolError(
                f"job table is full ({self.live()} live jobs, "
                f"limit {self.max_live}); retry later",
                status=429, retry_after=5.0)
        job = ServiceJob(id=f"j{next(self._ids):06d}-"
                            f"{secrets.token_hex(4)}",
                         kind=kind, total=total)
        self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> ServiceJob:
        self._prune()
        job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}", status=404)
        return job

    def cancel(self, job_id: str) -> ServiceJob:
        """Cancel a queued/running job; finished jobs are left alone."""
        job = self.get(job_id)
        if job.state in (JOB_QUEUED, JOB_RUNNING):
            if job.task is not None and not job.task.done():
                job.task.cancel()
            job.state = JOB_CANCELLED
            job.finished = time.time()
        return job

    def live(self) -> int:
        return sum(1 for j in self._jobs.values()
                   if j.state in (JOB_QUEUED, JOB_RUNNING))

    def values(self):
        return list(self._jobs.values())

    def stats(self) -> Dict[str, int]:
        finished = sum(1 for j in self._jobs.values()
                       if j.state in (JOB_DONE, JOB_FAILED, JOB_CANCELLED))
        return {"live": self.live(), "finished": finished,
                "evictions": self.evictions}

    def _prune(self, now: Optional[float] = None) -> None:
        """Drop finished jobs past their TTL, then the oldest finished
        jobs beyond the history bound (live jobs are never evicted)."""
        now = time.time() if now is None else now
        finished = [j for j in self._jobs.values()
                    if j.state in (JOB_DONE, JOB_FAILED, JOB_CANCELLED)]
        if self.ttl_seconds is not None:
            expired = [j for j in finished
                       if now - (j.finished or j.created) > self.ttl_seconds]
            for job in expired:
                del self._jobs[job.id]
                self.evictions += 1
            finished = [j for j in finished if j.id in self._jobs]
        excess = len(finished) - self.max_finished
        if excess > 0:
            finished.sort(key=lambda j: j.finished or j.created)
            for job in finished[:excess]:
                del self._jobs[job.id]
                self.evictions += 1
