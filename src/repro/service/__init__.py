"""Persistent sweep service: durable job queue, artifact catalog, and
the serving loop over one service directory.

See :mod:`repro.service.service` for the execution model and
``docs/SERVICE.md`` for the protocol walkthrough.
"""

from .catalog import Catalog, canonical_sha, point_key, source_sha
from .db import SchemaMismatch
from .queue import MAX_SHARD_ATTEMPTS, Event, JobQueue, JobStatus, make_owner
from .service import (
    BACKENDS,
    KILL_AFTER_ENV,
    JobFailed,
    JobHandle,
    SweepService,
    default_service_dir,
)
from .worker import shard_jobs

__all__ = [
    "BACKENDS",
    "Catalog",
    "Event",
    "JobFailed",
    "JobHandle",
    "JobQueue",
    "JobStatus",
    "KILL_AFTER_ENV",
    "MAX_SHARD_ATTEMPTS",
    "SchemaMismatch",
    "SweepService",
    "canonical_sha",
    "default_service_dir",
    "make_owner",
    "point_key",
    "shard_jobs",
    "source_sha",
]
