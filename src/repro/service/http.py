"""Hand-rolled asyncio HTTP/1.1 front-end for the job service.

This is the wire API the ROADMAP asked for on top of the durable
:class:`~repro.service.jobstore.JobStore`: a stdlib-only server built
directly on :func:`asyncio.start_server` — request parsing, keep-alive
and chunked transfer are implemented here, not imported — because the
package's no-third-party-deps rule applies to the service layer too.

Endpoints (all JSON unless noted)::

    POST   /v1/{tenant}/jobs             submit a JobSpec -> 201 + job
    GET    /v1/{tenant}/jobs             list the tenant's jobs
    GET    /v1/{tenant}/jobs/{id}        one job record
    DELETE /v1/{tenant}/jobs/{id}        cancel (queued jobs only)
    GET    /v1/{tenant}/jobs/{id}/result pickle artefact (octet-stream)
    GET    /v1/{tenant}/jobs/{id}/report RunReport JSON
    GET    /v1/{tenant}/jobs/{id}/events NDJSON state-transition stream
                                         (chunked, stays open to terminal)
    GET    /metrics                      Prometheus text exposition
    GET    /healthz                      liveness + tenant count

Three design rules keep the layer honest:

* **The event loop never blocks on the store.**  Every ``JobStore``
  call — all of which take a ``flock`` and fsync — runs in a worker
  thread via :func:`asyncio.to_thread`, which also copies the
  connection's session (:mod:`repro.context`) so ``service.*``
  metrics land in the same registry ``/metrics`` serves.
* **Errors are structured, never swallowed.**  Back-pressure surfaces
  as 429 with a ``Retry-After`` hint and the depth/limit in the body;
  a malformed or DRC-failing netlist upload is a 422 with the gating
  violations listed — the job is rejected *before* it can poison a
  worker.
* **Execution stays out of the transport.**  The server only adapts
  the store onto HTTP; draining belongs to a worker fleet
  (:class:`~repro.service.tenants.TenantFleet`, a plain supervisor, or
  standalone ``python -m repro.service`` workers pointed at a tenant
  directory).
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    JobNotFoundError,
    LibraryError,
    NetlistError,
    ServiceBusyError,
    ServiceError,
)
from ..obs import Telemetry, use_telemetry
from ..obs.metrics import MetricsRegistry
from .jobstore import JobRecord, JobSpec, JobStore
from .tenants import TenantFleet, TenantManager

SERVER_NAME = "repro-service-http/1.0"

_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 64 * 1024
_DEFAULT_MAX_BODY = 32 * 1024 * 1024  # netlist uploads are text, MBs

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

#: Keys a submitted JobSpec JSON body may carry; anything else is a
#: loud 400 — a typo'd field silently ignored would be a silent wrong
#: answer later.
_SPEC_KEYS = frozenset(
    (
        "scale",
        "seed",
        "flow_seed",
        "max_patterns",
        "telemetry",
        "chaos",
        "netlist_verilog",
    )
)

_JOBS_RE = re.compile(
    r"/v1/(?P<tenant>[^/]+)/jobs"
    r"(?:/(?P<job>[^/]+?))?"
    r"(?:/(?P<sub>events|result|report))?\Z"
)

#: Latency histogram buckets tuned for request handling (the default
#: registry buckets top out at minutes, which is flow-stage territory).
_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


class HttpError(Exception):
    """A structured HTTP failure: status + machine-readable body."""

    def __init__(
        self,
        status: int,
        message: str,
        kind: str = "error",
        headers: Optional[Dict[str, str]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.message = message
        self.headers = dict(headers or {})
        self.extra = dict(extra or {})

    def body(self) -> Dict[str, Any]:
        err: Dict[str, Any] = {"kind": self.kind, "message": self.message}
        err.update(self.extra)
        return {"error": err}


@dataclass
class Request:
    """One parsed HTTP/1.1 request."""

    method: str
    target: str
    version: str
    headers: Dict[str, str]
    body: bytes
    path: str = ""
    query: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        split = urllib.parse.urlsplit(self.target)
        self.path = split.path
        self.query = {
            k: v[-1]
            for k, v in urllib.parse.parse_qs(split.query).items()
        }

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"


@dataclass
class Response:
    """One response; ``stream=True`` means the handler already wrote."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    stream: bool = False

    @classmethod
    def json(
        cls,
        payload: Dict[str, Any],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        body = (
            json.dumps(payload, sort_keys=True, default=str) + "\n"
        ).encode("utf-8")
        return cls(status=status, body=body, headers=dict(headers or {}))


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = _DEFAULT_MAX_BODY,
    idle_timeout_s: float = 30.0,
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` for protocol violations (oversized
    line/headers/body, missing length, unsupported transfer coding)
    and :class:`asyncio.TimeoutError` when the peer goes quiet
    mid-request.
    """
    try:
        line = await asyncio.wait_for(
            reader.readline(), timeout=idle_timeout_s
        )
    except asyncio.IncompleteReadError:  # pragma: no cover - defensive
        return None
    if not line:
        return None
    if len(line) > _MAX_REQUEST_LINE:
        raise HttpError(431, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {line!r}")
    method, target, version = parts

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        hline = await asyncio.wait_for(
            reader.readline(), timeout=idle_timeout_s
        )
        if not hline or hline in (b"\r\n", b"\n"):
            break
        header_bytes += len(hline)
        if header_bytes > _MAX_HEADER_BYTES:
            raise HttpError(431, "headers too large")
        text = hline.decode("latin-1").rstrip("\r\n")
        if ":" not in text:
            raise HttpError(400, f"malformed header line: {text!r}")
        key, value = text.split(":", 1)
        headers[key.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpError(
            501, "chunked request bodies are not supported; "
            "send Content-Length"
        )
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(
                400, f"bad Content-Length {length_text!r}"
            ) from None
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413,
                f"body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        body = await asyncio.wait_for(
            reader.readexactly(length), timeout=idle_timeout_s
        )
    elif method in ("POST", "PUT", "PATCH"):
        raise HttpError(411, f"{method} requires Content-Length")
    return Request(
        method=method,
        target=target,
        version=version,
        headers=headers,
        body=body,
    )


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


class HttpFrontEnd:
    """The asyncio server: routing, metrics, tenancy, streaming."""

    def __init__(
        self,
        tenants: TenantManager,
        telemetry: Optional[Telemetry] = None,
        event_poll_s: float = 0.05,
        max_body_bytes: int = _DEFAULT_MAX_BODY,
        idle_timeout_s: float = 30.0,
    ) -> None:
        self.tenants = tenants
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(tracing=False, metrics=True)
        )
        if self.telemetry.metrics is None:
            raise ServiceError(
                "the HTTP front-end needs a metrics-enabled Telemetry"
            )
        self.registry: MetricsRegistry = self.telemetry.metrics
        self.event_poll_s = event_poll_s
        self.max_body_bytes = max_body_bytes
        self.idle_timeout_s = idle_timeout_s
        self.host: str = ""
        self.port: int = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "dict[asyncio.StreamWriter, asyncio.Task[None]]" = {}
        self._started_at = time.time()

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(
            self._on_connect, host=host, port=port
        )
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        self.host, self.port = addr[0], addr[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # ``Server.close`` stops *listening*; established
            # keep-alive connections would linger past the loop's
            # lifetime (and warn at GC time) unless torn down here.
            handlers = list(self._connections.values())
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            if handlers:
                # Each handler unwinds inside its own task, and so exits
                # its own session scope, before the loop closes; one
                # still stuck after the grace period is cancelled.
                _, stuck = await asyncio.wait(handlers, timeout=5.0)
                for task in stuck:
                    task.cancel()
                await asyncio.gather(*stuck, return_exceptions=True)
            self._server = None

    # -- connection loop -------------------------------------------------
    def _on_connect(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections[writer] = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        with use_telemetry(self.telemetry):
            try:
                await self._connection_loop(reader, writer)
            except (
                ConnectionError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
            ):
                pass  # peer vanished mid-request; nothing to answer
            finally:
                self._connections.pop(writer, None)
                try:
                    writer.close()
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                request = await read_request(
                    reader,
                    max_body_bytes=self.max_body_bytes,
                    idle_timeout_s=self.idle_timeout_s,
                )
            except HttpError as exc:
                await self._write_response(
                    writer, self._error_response(exc), keep_alive=False
                )
                return
            if request is None:
                return
            t0 = time.perf_counter()
            route = self._route_label(request.path)
            try:
                response = await self._dispatch(request, writer)
            except HttpError as exc:
                response = self._error_response(exc)
            except (
                ConnectionError,
                asyncio.TimeoutError,
            ):  # client gone mid-stream
                raise
            except Exception as exc:  # noqa: BLE001 - server must answer
                response = self._error_response(
                    HttpError(500, f"internal error: {exc!r}")
                )
            self._account(
                request.method, route, response.status,
                time.perf_counter() - t0,
            )
            if response.stream:
                # The handler streamed its own body and the connection
                # state is unknowable (the peer may have hung up);
                # close rather than guess.
                return
            keep = request.keep_alive
            await self._write_response(writer, response, keep_alive=keep)
            if not keep:
                return

    def _account(
        self, method: str, route: str, status: int, elapsed_s: float
    ) -> None:
        self.registry.counter(
            "http.requests", help="HTTP requests served"
        ).inc(1, method=method, route=route, status=str(status))
        self.registry.histogram(
            "http.request_latency_s",
            help="request handling latency in seconds",
            buckets=_LATENCY_BUCKETS,
        ).observe(elapsed_s, route=route)

    @staticmethod
    def _route_label(path: str) -> str:
        """Bounded-cardinality route label for metrics."""
        if path in ("/healthz", "/metrics"):
            return path
        m = _JOBS_RE.fullmatch(path)
        if m is None:
            return "unknown"
        label = "/v1/{tenant}/jobs"
        if m.group("job"):
            label += "/{id}"
        if m.group("sub"):
            label += "/" + m.group("sub")
        return label

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        head = [
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Unknown')}",
            f"Server: {SERVER_NAME}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for key, value in response.headers.items():
            head.append(f"{key}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
            + response.body
        )
        await writer.drain()

    @staticmethod
    def _error_response(exc: HttpError) -> Response:
        return Response.json(
            exc.body(), status=exc.status, headers=exc.headers
        )

    # -- routing ----------------------------------------------------------
    async def _dispatch(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
    ) -> Response:
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                raise HttpError(405, "healthz is GET-only")
            return await self._handle_healthz()
        if path == "/metrics":
            if request.method != "GET":
                raise HttpError(405, "metrics is GET-only")
            return await self._handle_metrics()
        m = _JOBS_RE.fullmatch(path)
        if m is None:
            raise HttpError(404, f"no route for {path!r}", kind="no_route")
        tenant, job_id, sub = m.group("tenant", "job", "sub")
        store = await self._tenant_store(tenant)
        if job_id is None:
            if request.method == "POST":
                return await self._handle_submit(tenant, store, request)
            if request.method == "GET":
                return await self._handle_list(store)
            raise HttpError(405, f"{request.method} not allowed on jobs")
        if sub is None:
            if request.method == "GET":
                return await self._handle_status(store, job_id)
            if request.method == "DELETE":
                return await self._handle_cancel(store, job_id)
            raise HttpError(
                405, f"{request.method} not allowed on a job"
            )
        if request.method != "GET":
            raise HttpError(405, f"{sub} is GET-only")
        if sub == "result":
            return await self._handle_result(store, job_id)
        if sub == "report":
            return await self._handle_report(store, job_id)
        return await self._handle_events(
            store, tenant, job_id, request, writer
        )

    async def _tenant_store(self, tenant: str) -> JobStore:
        try:
            return await asyncio.to_thread(self.tenants.store, tenant)
        except ServiceError as exc:
            raise HttpError(
                400, str(exc), kind="invalid_tenant"
            ) from exc

    # -- handlers ---------------------------------------------------------
    async def _handle_healthz(self) -> Response:
        tenants = await asyncio.to_thread(self.tenants.tenant_names)
        return Response.json(
            {
                "status": "ok",
                "server": SERVER_NAME,
                "uptime_s": round(time.time() - self._started_at, 3),
                "tenants": tenants,
            }
        )

    async def _handle_metrics(self) -> Response:
        def render() -> str:
            # Refresh per-tenant gauges at scrape time so the
            # exposition reflects the stores as they are now, not as
            # they were at the last submit.
            depth_gauge = self.registry.gauge(
                "service.tenant_queue_depth",
                help="active (non-terminal) jobs per tenant",
            )
            limit_gauge = self.registry.gauge(
                "service.tenant_queue_limit",
                help="max_queue_depth per tenant",
            )
            for name, store in self.tenants.open_stores():
                depth_gauge.set(store.queue_depth(), tenant=name)
                limit_gauge.set(
                    store.config.max_queue_depth, tenant=name
                )
            return self.registry.to_prometheus()

        text = await asyncio.to_thread(render)
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_submit(
        self, tenant: str, store: JobStore, request: Request
    ) -> Response:
        spec = self._parse_spec(request)
        if spec.netlist_verilog is not None:
            await asyncio.to_thread(self._gate_netlist, spec)
        try:
            job = await asyncio.to_thread(store.submit, spec)
        except ServiceBusyError as exc:
            retry_after = max(
                1, int(round(store.config.backoff_base_s + 0.5))
            )
            raise HttpError(
                429,
                str(exc),
                kind="busy",
                headers={"Retry-After": str(retry_after)},
                extra={"depth": exc.depth, "limit": exc.limit},
            ) from exc
        except ServiceError as exc:
            raise HttpError(400, str(exc), kind="rejected") from exc
        return Response.json(
            {"job": job.to_dict()},
            status=201,
            headers={"Location": f"/v1/{tenant}/jobs/{job.id}"},
        )

    def _parse_spec(self, request: Request) -> JobSpec:
        ctype = request.headers.get("content-type", "application/json")
        if "json" not in ctype:
            raise HttpError(
                400, f"unsupported content type {ctype!r}",
                kind="bad_request",
            )
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(
                400, f"body is not valid JSON: {exc}", kind="bad_json"
            ) from exc
        if not isinstance(payload, dict):
            raise HttpError(
                400, "body must be a JSON object (a JobSpec)",
                kind="bad_json",
            )
        unknown = sorted(set(payload) - _SPEC_KEYS)
        if unknown:
            raise HttpError(
                400,
                f"unknown JobSpec field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(_SPEC_KEYS))})",
                kind="bad_spec",
            )
        try:
            return JobSpec.from_dict(payload)
        except (TypeError, ValueError, AttributeError) as exc:
            raise HttpError(
                400, f"invalid JobSpec: {exc}", kind="bad_spec"
            ) from exc

    def _gate_netlist(self, spec: JobSpec) -> None:
        """Parse + DRC-gate an uploaded netlist *before* enqueueing.

        Runs the exact gate the flow itself runs
        (:data:`~repro.core.flow.DRC_GATE_FAMILIES` over the
        reconstructed design), so an accepted upload cannot fail the
        worker-side gate later; a rejected one answers 422 with the
        violations, costing zero worker time.
        """
        from ..core.flow import DRC_GATE_FAMILIES
        from ..drc import DrcContext, run_drc

        try:
            design, _ = spec.build_design_and_plan()
        except (NetlistError, LibraryError) as exc:
            raise HttpError(
                422, f"netlist rejected: {exc}", kind="netlist_error"
            ) from exc
        report = run_drc(
            DrcContext.for_design(design), families=DRC_GATE_FAMILIES
        )
        gating = report.gating_violations("error")
        if gating:
            raise HttpError(
                422,
                f"netlist failed DRC with {len(gating)} unwaived "
                f"ERROR violation(s)",
                kind="drc_rejected",
                extra={
                    "violations": [
                        {
                            "rule_id": v.rule_id,
                            "severity": v.severity,
                            "message": v.message,
                        }
                        for v in gating[:20]
                    ]
                },
            )

    async def _handle_list(self, store: JobStore) -> Response:
        jobs = await asyncio.to_thread(store.list_jobs)
        return Response.json(
            {
                "jobs": [job.to_dict() for job in jobs],
                "queue_depth": sum(1 for j in jobs if not j.terminal),
                "queue_limit": store.config.max_queue_depth,
            }
        )

    async def _handle_status(
        self, store: JobStore, job_id: str
    ) -> Response:
        job = await self._get_job(store, job_id)
        return Response.json({"job": job.to_dict()})

    async def _handle_cancel(
        self, store: JobStore, job_id: str
    ) -> Response:
        try:
            job = await asyncio.to_thread(store.cancel, job_id)
        except JobNotFoundError as exc:
            raise HttpError(404, str(exc), kind="not_found") from exc
        except ServiceError as exc:
            raise HttpError(409, str(exc), kind="conflict") from exc
        return Response.json({"job": job.to_dict()})

    async def _handle_result(
        self, store: JobStore, job_id: str
    ) -> Response:
        job = await self._get_job(store, job_id)

        def read_bytes() -> bytes:
            with open(store.result_path(job_id), "rb") as fh:
                return fh.read()

        try:
            blob = await asyncio.to_thread(read_bytes)
        except FileNotFoundError:
            raise HttpError(
                404,
                f"job {job_id} has no result artefact "
                f"(state: {job.state})",
                kind="result_missing",
            ) from None
        return Response(
            status=200,
            body=blob,
            content_type="application/octet-stream",
        )

    async def _handle_report(
        self, store: JobStore, job_id: str
    ) -> Response:
        await self._get_job(store, job_id)
        report = await asyncio.to_thread(store.load_report, job_id)
        if report is None:
            raise HttpError(
                404,
                f"job {job_id} has no RunReport yet",
                kind="report_missing",
            )
        return Response.json({"report": report.to_dict()})

    async def _get_job(self, store: JobStore, job_id: str) -> JobRecord:
        try:
            return await asyncio.to_thread(store.get, job_id)
        except JobNotFoundError as exc:
            raise HttpError(404, str(exc), kind="not_found") from exc

    # -- the event stream --------------------------------------------------
    async def _handle_events(
        self,
        store: JobStore,
        tenant: str,
        job_id: str,
        request: Request,
        writer: asyncio.StreamWriter,
    ) -> Response:
        """Chunked NDJSON tail of the job's state transitions.

        The watcher polls the job's durable record (reads are
        lock-free: every store write is an atomic rename) and emits
        one event per observed change — job state, any shard state, or
        a shard attempt counter.  The first event is the current
        snapshot, so a late subscriber still sees a well-formed,
        in-order sequence; the stream ends with the terminal event.
        """
        job = await self._get_job(store, job_id)  # 404 before headers
        try:
            timeout_s = float(request.query.get("timeout_s", "600"))
        except ValueError:
            raise HttpError(400, "timeout_s must be a number") from None

        streams = self.registry.gauge(
            "http.event_streams_active",
            help="currently open /events NDJSON streams",
        )
        streams.inc(1, tenant=tenant)
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Server: {SERVER_NAME}\r\n"
            f"Content-Type: application/x-ndjson\r\n"
            f"Transfer-Encoding: chunked\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        seq = 0
        last: Optional[Tuple[str, Tuple[Tuple[str, int], ...]]] = None
        deadline = asyncio.get_running_loop().time() + timeout_s
        try:
            while True:
                observed = (
                    job.state,
                    tuple((s.state, s.attempts) for s in job.shards),
                )
                if observed != last:
                    last = observed
                    event = {
                        "seq": seq,
                        "ts": round(time.time(), 6),
                        "job": job.id,
                        "state": job.state,
                        "terminal": job.terminal,
                        "error": job.error,
                        "shards": [
                            {
                                "name": s.name,
                                "state": s.state,
                                "attempts": s.attempts,
                            }
                            for s in job.shards
                        ],
                    }
                    line = (
                        json.dumps(event, sort_keys=True) + "\n"
                    ).encode("utf-8")
                    writer.write(_chunk(line))
                    await writer.drain()
                    seq += 1
                if job.terminal:
                    break
                if asyncio.get_running_loop().time() > deadline:
                    timeout_event = {
                        "seq": seq,
                        "ts": round(time.time(), 6),
                        "job": job.id,
                        "event": "timeout",
                        "state": job.state,
                        "terminal": False,
                    }
                    writer.write(
                        _chunk(
                            (
                                json.dumps(timeout_event, sort_keys=True)
                                + "\n"
                            ).encode("utf-8")
                        )
                    )
                    break
                await asyncio.sleep(self.event_poll_s)
                try:
                    job = await asyncio.to_thread(store.get, job_id)
                except (JobNotFoundError, ServiceError):
                    break  # record vanished; end the stream cleanly
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            streams.inc(-1, tenant=tenant)
        return Response(status=200, stream=True)


class HttpServerThread:
    """Run an :class:`HttpFrontEnd` (and optional fleet) off-thread.

    The asyncio loop lives in a daemon thread so synchronous callers —
    the CLI, tests, the benchmark — can start a real server, talk to
    it over sockets, and tear it down deterministically::

        tenants = TenantManager(data_root)
        with HttpServerThread(tenants, fleet=TenantFleet(tenants)) as srv:
            client = HttpServiceClient(srv.base_url, tenant="default")
            ...
    """

    def __init__(
        self,
        tenants: TenantManager,
        host: str = "127.0.0.1",
        port: int = 0,
        fleet: Optional[TenantFleet] = None,
        telemetry: Optional[Telemetry] = None,
        event_poll_s: float = 0.05,
    ) -> None:
        self.front_end = HttpFrontEnd(
            tenants, telemetry=telemetry, event_poll_s=event_poll_s
        )
        self.fleet = fleet
        if fleet is not None and fleet.telemetry is None:
            # Fleet activity (shards completed, leases expired, inline
            # executions) should land in the same /metrics exposition.
            fleet.telemetry = self.front_end.telemetry
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.front_end.host}:{self.front_end.port}"

    def start(self) -> "HttpServerThread":
        if self._thread is not None:
            raise ServiceError("server already started")
        started = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(
                    self.front_end.start(self._host, self._port)
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                self._startup_error = exc
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.front_end.stop())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-http-server", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30.0):
            raise ServiceError("HTTP server failed to start in 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise ServiceError(
                f"HTTP server failed to start: {self._startup_error!r}"
            )
        if self.fleet is not None:
            self.fleet.start()
        return self

    def stop(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
        loop = self._loop
        if loop is not None and self._thread is not None:
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout=30.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "HttpServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
