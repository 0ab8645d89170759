"""Job-oriented async service layer over the verification engine.

The public API of the reproduction, redesigned around *jobs*: typed
requests (:class:`VerifyRequest`, :class:`SortRequest`, defined in
:mod:`repro.requests` so the CLI can run them without importing this
package and asyncio) are submitted to a :class:`JobManager`, which drives the sharded sweeps through
asyncio with per-shard progress, an ``async for`` failure stream, and
cooperative cancellation.  :class:`ReproServer` exposes the manager
over a dependency-free JSON-lines TCP protocol;
:class:`AsyncServiceClient` / :class:`ServiceClient` speak it.

Entry points::

    python -m repro serve --port 7421 --jobs 2      # run the service
    python -m repro submit verify --width 8          # client round-trip
    python -m repro status <job-id>

or programmatically::

    manager = JobManager(jobs=4)
    job = manager.submit(VerifyRequest(width=10))
    async for event in manager.stream(job.id):
        ...
"""

from .cache import ShardCache
from .client import AsyncServiceClient, ServiceClient, ServiceError
from .jobs import (
    Job,
    JobManager,
    JobState,
    MAX_VERIFY_WIDTH,
    SortRequest,
    VerifyRequest,
    request_from_dict,
)
from .server import DEFAULT_HOST, DEFAULT_PORT, ReproServer

__all__ = [
    "AsyncServiceClient",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Job",
    "JobManager",
    "JobState",
    "MAX_VERIFY_WIDTH",
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "ShardCache",
    "SortRequest",
    "VerifyRequest",
    "request_from_dict",
]
