"""Planning-as-a-service: the multi-tenant sweep server.

``repro serve`` turns the sweep runtime into a long-running HTTP/JSON
capacity-planning service: jobspec-shaped requests are validated,
scheduled fair-share across tenants on a shared persistent process
pool, coalesced against in-flight duplicates, and answered from one
shared content-addressed result cache with LRU eviction.  See
``docs/serving.md`` for the API and tenancy model.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import FairShareScheduler, TaskUnit
from repro.serve.schemas import SubmitRequest, parse_submit
from repro.serve.server import SweepServer, serve
from repro.serve.state import JobRegistry, JobState

__all__ = [
    "ServeClient",
    "ServeError",
    "FairShareScheduler",
    "TaskUnit",
    "SubmitRequest",
    "parse_submit",
    "SweepServer",
    "serve",
    "JobRegistry",
    "JobState",
]
