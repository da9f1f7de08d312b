"""ATPG-as-a-service: a durable, sharded job backend for the flow.

``repro.service`` turns :func:`repro.core.run_noise_tolerant_flow`
into submit/poll/fetch jobs that survive worker crashes, hangs and
restarts:

* :class:`JobStore` — crash-safe, file-backed job/shard state machine
  (``queued → leased → running → done | failed | dead``, plus
  ``cancelled`` for jobs pulled back before any shard ran) with
  explicit back-pressure;
* :class:`Lease` / :class:`LeaseHeartbeat` — expiring, fenced shard
  ownership; dead or hung workers forfeit their shard after one TTL;
* :class:`ServiceWorker` — claims shards (= flow stages keyed by the
  flow's checkpoint keys) and resumes predecessors' work
  bit-identically from the job's checkpoint store;
* :class:`ServiceSupervisor` — keeps a worker fleet alive, respawns
  crashes, and degrades to in-process serial execution when the fleet
  is gone;
* :class:`ServiceClient` — the file-backed submit/poll/fetch front-end;
* :class:`HttpFrontEnd` / :class:`HttpServerThread` — the stdlib
  asyncio HTTP/1.1 wire API (``/v1/{tenant}/jobs``, NDJSON event
  streaming, Prometheus ``/metrics``), with
  :class:`HttpServiceClient` as its mirror-image client;
* :class:`TenantManager` / :class:`TenantFleet` — auth-less tenant
  namespaces, one lazily created store (and supervised fleet) per
  tenant under a shared data root.

CLI: ``repro serve`` (``--http HOST:PORT`` for the wire API) /
``repro submit`` / ``repro jobs``.
"""

from .client import HttpServiceClient, ServiceClient
from .http import HttpFrontEnd, HttpServerThread
from .jobstore import (
    JOB_CANCELLED,
    JOB_DEAD,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobRecord,
    JobSpec,
    JobStore,
    ServiceConfig,
    ShardRecord,
    backoff_delay_s,
)
from .lease import Lease, LeaseHeartbeat
from .supervisor import ServiceSupervisor
from .tenants import TenantFleet, TenantManager, validate_tenant_name
from .worker import ServiceWorker, result_payload, run_shard_flow

__all__ = [
    "JOB_CANCELLED",
    "JOB_DEAD",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "HttpFrontEnd",
    "HttpServerThread",
    "HttpServiceClient",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "Lease",
    "LeaseHeartbeat",
    "ServiceClient",
    "ServiceConfig",
    "ServiceSupervisor",
    "ServiceWorker",
    "ShardRecord",
    "TenantFleet",
    "TenantManager",
    "backoff_delay_s",
    "result_payload",
    "run_shard_flow",
    "validate_tenant_name",
]
