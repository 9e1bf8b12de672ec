"""HTTP/JSON front for the fleet: submit, quote, stats — stdlib only.

A deliberately thin service layer over :class:`~repro.fleet.sharding.
FleetManager`: one single-threaded :class:`http.server.HTTPServer`
(submissions mutate shard state, so serialising requests is the
correctness-preserving default, not a limitation), JSON in and out,
every request body schema-validated *before* it can touch a shard. The
handler talks to the **manager only** — never to shard objects — so the
same front serves the in-process and the multiprocess executor
unchanged.

Endpoints:

========  ====================  ==========================================
Method    Path                  Behaviour
========  ====================  ==========================================
GET       ``/v1/health``        liveness + shard count + worker health
GET       ``/v1/tenants``       tenant directory with quota state
GET       ``/v1/stats``         live fleet-wide and per-shard counters
GET       ``/v1/metrics``       Prometheus text exposition (telemetry plane)
POST      ``/v1/jobs``          submit ``n_jobs`` for a tenant
POST      ``/v1/quotes``        price one job for a tenant, no admission
========  ====================  ==========================================

Error contract — **one versioned envelope** across every failure
status::

    {"error": {"code": "<machine-readable>", "message": "<human>",
               "path": "<json-pointer-ish body path, or request path>"}}

* **400** ``invalid_json`` / ``empty_body`` / ``schema_violation`` /
  ``invalid_request`` — malformed bodies never touch a shard; schema
  violations carry the offending body path (``$.n_jobs``);
* **404** ``unknown_tenant`` / ``not_found``;
* **413** ``body_too_large``;
* **429** ``quota_exhausted`` — the tenant's per-run quota is spent
  (raised by the shard's count-submit op before it synthesises any job,
  so the same round trip that would submit also refuses);
* **500** ``internal`` — and the server keeps serving;
* **503** ``shard_lost`` / ``starting`` — a worker died (multiprocess
  executor) or the fleet is still booting behind the bound socket.

:class:`~repro.fleet.client.FleetClient` is the typed consumer of this
contract.
"""

from __future__ import annotations

import json
import math
import signal
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Callable, Optional

from ..obs.exposition import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.exposition import render_exposition
from .executor import ShardLostError
from .schema import SchemaError, validate
from .sharding import FleetConfig, FleetManager, QuotaExceededError
from .tenants import TenantRegistry, UnknownTenantError, default_registry

__all__ = [
    "SUBMIT_SCHEMA",
    "QUOTE_SCHEMA",
    "FleetAPIServer",
    "serve_fleet",
]

#: Body of POST /v1/jobs. ``n_jobs`` is a count, not job bodies: the
#: service synthesises documents from its seeded per-shard substream, so
#: a submission's effect is reproducible from the request alone.
SUBMIT_SCHEMA: dict = {
    "type": "object",
    "required": ["tenant", "n_jobs"],
    "additionalProperties": False,
    "properties": {
        "tenant": {"type": "string", "minLength": 1, "maxLength": 128},
        "n_jobs": {"type": "integer", "minimum": 1, "maximum": 10_000},
        "arrival_time_s": {"type": "number", "minimum": 0},
    },
}

#: Body of POST /v1/quotes.
QUOTE_SCHEMA: dict = {
    "type": "object",
    "required": ["tenant"],
    "additionalProperties": False,
    "properties": {
        "tenant": {"type": "string", "minLength": 1, "maxLength": 128},
    },
}

JSON_CONTENT_TYPE = "application/json"

#: Cap on request bodies — a submit body is a few short fields; anything
#: larger is a client bug or abuse, refused before parsing.
MAX_BODY_BYTES = 64 * 1024


class _APIError(Exception):
    """A request failure with a wire status and enveloped error body.

    ``path`` locates the fault: a body path (``$.n_jobs``) for schema
    violations, the request path otherwise.
    """

    def __init__(
        self, status: int, code: str, message: str, path: str = ""
    ) -> None:
        self.status = status
        self.code = code
        self.message = message
        self.path = path
        super().__init__(message)

    def body(self, request_path: str) -> dict:
        return {
            "error": {
                "code": self.code,
                "message": self.message,
                "path": self.path or request_path,
            }
        }


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the owning server carries the fleet manager.

    Each response leaves in one send: ``wbufsize = -1`` buffers the
    status line, headers and body in ``wfile``, which the stdlib flushes
    once per request (``handle_one_request``) and on close (``finish``).
    A body sent apart from its headers is a second small segment that
    Nagle holds until the client ACKs the first, and clients delay that
    ACK by ~40 ms. Nagle is off too, because a body larger than the
    buffer still goes out in more than one send.
    """

    server: "FleetAPIServer"
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    # Quiet by default: the test suite and the CLI's --quiet mode both
    # run with logging off; serve_fleet turns it on for operators.
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, error: _APIError) -> None:
        body = json.dumps(error.body(self.path)).encode("utf-8")
        self._send(error.status, body, JSON_CONTENT_TYPE)

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client before it sends the
        # body, not wait in the write buffer for the final response.
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise _APIError(400, "empty_body", "request body required")
        if length > MAX_BODY_BYTES:
            raise _APIError(
                413, "body_too_large", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _APIError(400, "invalid_json", f"body is not JSON: {exc}") from None

    def _manager(self) -> FleetManager:
        manager = self.server.manager
        if manager is None:
            raise _APIError(
                503, "starting", "fleet is still booting behind this socket"
            )
        return manager

    def _dispatch(
        self, handler: Callable[[], tuple[int, dict[str, Any]]]
    ) -> None:
        try:
            status, payload = handler()
        except _APIError as exc:
            self._send_error(exc)
        except SchemaError as exc:
            self._send_error(
                _APIError(400, "schema_violation", exc.message, exc.path)
            )
        except UnknownTenantError as exc:
            self._send_error(
                _APIError(404, "unknown_tenant", f"no such tenant: {exc.args[0]!r}")
            )
        except ShardLostError as exc:
            self._send_error(_APIError(503, "shard_lost", str(exc)))
        except ValueError as exc:
            # Request-induced domain errors (e.g. an arrival time behind
            # the shard's virtual clock) are the client's fault, not ours.
            self._send_error(_APIError(400, "invalid_request", str(exc)))
        except QuotaExceededError as exc:
            self._send_error(_APIError(429, "quota_exhausted", str(exc)))
        except Exception as exc:  # noqa: BLE001 — a fault must not kill the server
            self._send_error(
                _APIError(500, "internal", f"{type(exc).__name__}: {exc}")
            )
        else:
            self._send(status, json.dumps(payload).encode("utf-8"), JSON_CONTENT_TYPE)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path == "/v1/metrics":
            # Text exposition, not the JSON envelope; errors still use it.
            self._dispatch_metrics()
            return
        routes = {
            "/v1/health": self._get_health,
            "/v1/tenants": self._get_tenants,
            "/v1/stats": self._get_stats,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._send_error(_APIError(404, "not_found", f"no route {self.path}"))
            return
        self._dispatch(handler)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        routes = {
            "/v1/jobs": self._post_jobs,
            "/v1/quotes": self._post_quotes,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._send_error(_APIError(404, "not_found", f"no route {self.path}"))
            return
        self._dispatch(handler)

    # ------------------------------------------------------------------
    def _dispatch_metrics(self) -> None:
        """Serve ``GET /v1/metrics`` as Prometheus text exposition.

        Lost shards cost their own series only — the sweep behind
        :meth:`FleetManager.metrics_registry` marks them, it does not
        raise — so a degraded fleet still scrapes cleanly.
        """
        try:
            manager = self._manager()
            text = render_exposition(manager.metrics_registry())
        except _APIError as exc:
            self._send_error(exc)
        except Exception as exc:  # noqa: BLE001 — a fault must not kill the server
            self._send_error(
                _APIError(500, "internal", f"{type(exc).__name__}: {exc}")
            )
        else:
            self._send(200, text.encode("utf-8"), METRICS_CONTENT_TYPE)

    def _get_health(self) -> tuple[int, dict]:
        manager = self._manager()
        workers = [
            {
                "index": h.index,
                "alive": h.alive,
                "beat_age_s": None if math.isinf(h.beat_age_s) else h.beat_age_s,
            }
            for h in manager.health()
        ]
        return 200, {
            "status": "ok" if all(w["alive"] for w in workers) else "degraded",
            "n_shards": manager.n_shards,
            "n_tenants": len(manager.registry),
            "executor": manager.executor_name,
            "workers": workers,
        }

    def _get_tenants(self) -> tuple[int, dict]:
        manager = self._manager()
        accounts = manager.accounts()
        out = []
        for tenant in manager.registry:
            account = accounts[tenant.tenant_id]
            out.append({
                "tenant": tenant.tenant_id,
                "sla_class": tenant.sla_class.name,
                "shard": manager.registry.shard_index(
                    tenant.tenant_id, manager.n_shards
                ),
                "quota_jobs": account.quota_jobs,
                "quota_remaining": account.quota_remaining,
                "admitted_jobs": account.admitted_jobs,
            })
        return 200, {"tenants": out}

    def _get_stats(self) -> tuple[int, dict]:
        manager = self._manager()
        snapshots = manager.stats_snapshots()
        shards = [
            {
                "index": snap.index,
                "tenants": list(snap.tenant_ids),
                "stats": snap.counters,
                **({"lost": snap.lost} if snap.lost else {}),
            }
            for snap in snapshots
        ]
        fleet: dict[str, Any] = {}
        for snap in snapshots:
            for key, value in snap.counters.items():
                if isinstance(value, dict):
                    bucket = fleet.setdefault(key, {})
                    for reason, count in sorted(value.items()):
                        bucket[reason] = bucket.get(reason, 0) + count
                else:
                    fleet[key] = fleet.get(key, 0) + value
        return 200, {"fleet": fleet, "shards": shards}

    def _post_jobs(self) -> tuple[int, dict]:
        body = self._read_json()
        validate(body, SUBMIT_SCHEMA)
        manager = self._manager()
        tenant_id = body["tenant"]
        shard_index = manager.shard_index_for(tenant_id)  # raises UnknownTenantError
        # One executor round trip; an exhausted quota raises
        # QuotaExceededError from the shard before any job is synthesised.
        arrival_time, outcomes = manager.submit_count(
            tenant_id, body["n_jobs"], body.get("arrival_time_s")
        )
        return 200, {
            "tenant": tenant_id,
            "shard": shard_index,
            "arrival_time_s": arrival_time,
            "outcomes": [
                {
                    "job_id": o.job.job_id,
                    "decision": o.result.decision,
                    "reason": o.result.reason,
                    "promise_s": o.quote.promise_s,
                    "est_completion_s": o.quote.est_completion,
                    "slack_s": o.quote.slack_s,
                }
                for o in outcomes
            ],
        }

    def _post_quotes(self) -> tuple[int, dict]:
        body = self._read_json()
        validate(body, QUOTE_SCHEMA)
        manager = self._manager()
        tenant_id = body["tenant"]
        shard_index = manager.shard_index_for(tenant_id)  # raises UnknownTenantError
        quote = manager.quote(tenant_id)
        return 200, {
            "tenant": tenant_id,
            "shard": shard_index,
            "promise_s": quote.promise_s,
            "est_proc_s": quote.est_proc_s,
            "est_completion_s": quote.est_completion,
            "slack_s": quote.slack_s,
        }


class FleetAPIServer(HTTPServer):
    """An HTTP server bound to one fleet manager.

    Bind to port 0 to let the OS pick (tests do); ``server_port`` then
    carries the real port. ``handle_request`` serves exactly one request
    (deterministic single-step driving); ``serve_forever`` serves until
    shutdown.

    The socket binds in ``__init__`` — *before* any fleet exists when
    ``manager=None`` — so callers can print the real address, then build
    shards/workers behind the already-listening socket and
    :meth:`attach` the manager. Requests racing the boot get a clean
    503 ``starting`` instead of a connection refusal.
    """

    def __init__(
        self,
        manager: Optional[FleetManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.manager = manager
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    def attach(self, manager: FleetManager) -> None:
        """Hand the bound socket its fleet (see class docstring)."""
        self.manager = manager

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_fleet(
    config: Optional[FleetConfig] = None,
    registry: Optional[TenantRegistry] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = True,
    executor: Optional[str] = None,
) -> None:
    """Stand up a fleet and serve it until interrupted (CLI entry).

    The socket is bound — and the real address printed — *before* the
    fleet (and, under the multiprocess executor, its worker processes)
    is built, so scripts and tests can never race the server start: once
    the address line appears, connecting succeeds. SIGTERM (and Ctrl-C)
    triggers a graceful drain: every shard is finished, the fleet digest
    printed, and workers shut down.
    """
    config = config if config is not None else FleetConfig()
    registry = registry if registry is not None else default_registry()
    server = FleetAPIServer(None, host=host, port=port, verbose=verbose)
    print(f"fleet API listening on {server.url}", flush=True)
    manager = FleetManager(config, registry, executor=executor)
    server.attach(manager)
    print(
        f"fleet ready: {manager.n_shards} shards via "
        f"{manager.executor_name} executor, {len(manager.registry)} tenants",
        flush=True,
    )

    def _on_term(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining fleet", flush=True)
        report = manager.finish()
        print(f"fleet sha256: {report.sha256}")
        for index, cause in sorted(report.lost_shards.items()):
            print(f"LOST shard {index}: {cause}")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
