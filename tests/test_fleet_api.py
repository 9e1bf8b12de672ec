"""Integration tests for the fleet HTTP/JSON front, over a real socket.

Pins the error contract from the module docstring: every failure wears
the one versioned envelope ``{"error": {"code", "message", "path"}}`` —
malformed bodies get a 400 with a path-qualified schema error and never
touch a shard, unknown tenants get 404, exhausted quotas get the
distinct 429, and no request — including one that trips an internal
fault — kills the server.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.fleet import (
    FleetAPIServer,
    FleetConfig,
    FleetManager,
    TenantSpec,
    TenantRegistry,
)


@pytest.fixture
def server():
    registry = TenantRegistry(
        [
            TenantSpec(tenant_id="roomy"),
            TenantSpec(tenant_id="capped", quota_jobs=2),
        ]
    )
    manager = FleetManager(
        FleetConfig(n_shards=2, seed=2024, pretrain_jobs=40), registry
    )
    srv = FleetAPIServer(manager, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def request(srv, path, body=None, raw: bytes = None):
    """One round trip; returns (status, parsed_json_body)."""
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None
    )
    req = urllib.request.Request(
        srv.url + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_health(self, server):
        status, body = request(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["n_shards"] == 2
        assert body["n_tenants"] == 2
        assert body["executor"] == "inprocess"
        assert all(w["alive"] for w in body["workers"])

    def test_tenants_directory_reports_quota_state(self, server):
        status, body = request(server, "/v1/tenants")
        assert status == 200
        by_id = {t["tenant"]: t for t in body["tenants"]}
        assert by_id["capped"]["quota_jobs"] == 2
        assert by_id["capped"]["quota_remaining"] == 2
        assert by_id["roomy"]["quota_jobs"] is None
        assert all(0 <= t["shard"] < 2 for t in by_id.values())

    def test_submit_returns_one_outcome_per_job(self, server):
        status, body = request(
            server, "/v1/jobs", {"tenant": "roomy", "n_jobs": 3}
        )
        assert status == 200
        assert body["tenant"] == "roomy"
        assert len(body["outcomes"]) == 3
        for outcome in body["outcomes"]:
            assert outcome["decision"] in ("accept", "accept_degraded", "reject")
            assert outcome["promise_s"] is None or outcome["promise_s"] > 0

    def test_quote_prices_without_admitting(self, server):
        status, body = request(server, "/v1/quotes", {"tenant": "roomy"})
        assert status == 200
        assert body["est_completion_s"] > 0
        stats_status, stats = request(server, "/v1/stats")
        assert stats_status == 200
        assert stats["fleet"]["submitted"] == 0

    def test_stats_fleet_counters_sum_the_shards(self, server):
        request(server, "/v1/jobs", {"tenant": "roomy", "n_jobs": 2})
        request(server, "/v1/jobs", {"tenant": "capped", "n_jobs": 1})
        status, body = request(server, "/v1/stats")
        assert status == 200
        assert body["fleet"]["submitted"] == sum(
            s["stats"]["submitted"] for s in body["shards"]
        )
        assert body["fleet"]["submitted"] == 3


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
class TestErrorContract:
    def test_bad_json_is_a_400(self, server):
        status, body = request(server, "/v1/jobs", raw=b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_json"
        assert body["error"]["path"] == "/v1/jobs"

    def test_empty_body_is_a_400(self, server):
        status, body = request(server, "/v1/jobs", raw=b"")
        assert status == 400
        assert body["error"]["code"] == "empty_body"

    @pytest.mark.parametrize(
        "payload, path, fragment",
        [
            ({"n_jobs": 1}, "$", "tenant"),                     # missing key
            ({"tenant": "roomy", "n_jobs": "three"}, "n_jobs", "integer"),
            ({"tenant": "roomy", "n_jobs": 0}, "n_jobs", "minimum"),
            ({"tenant": "", "n_jobs": 1}, "tenant", "shorter"),
            ({"tenant": "roomy", "n_jobs": 1, "x": 1}, "$", "x"),  # extra key
            (
                {"tenant": "roomy", "n_jobs": 1, "arrival_time_s": -5},
                "arrival_time_s",
                "minimum",
            ),
        ],
    )
    def test_schema_violations_are_400_with_a_path(
        self, server, payload, path, fragment
    ):
        status, body = request(server, "/v1/jobs", payload)
        assert status == 400
        assert body["error"]["code"] == "schema_violation"
        assert body["error"]["path"] == path
        assert fragment in body["error"]["message"]

    def test_schema_violation_leaves_the_shard_untouched(self, server):
        request(server, "/v1/jobs", {"tenant": "roomy", "n_jobs": -1})
        status, stats = request(server, "/v1/stats")
        assert status == 200
        assert stats["fleet"]["submitted"] == 0

    def test_unknown_tenant_is_a_404(self, server):
        status, body = request(
            server, "/v1/jobs", {"tenant": "nobody", "n_jobs": 1}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_tenant"

    def test_unknown_route_is_a_404(self, server):
        status, body = request(server, "/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert body["error"]["path"] == "/v1/nope"
        status, body = request(server, "/v1/health", {"x": 1})
        assert status == 404  # POST to a GET-only path

    def test_oversized_body_is_a_413(self, server):
        blob = b'{"tenant": "' + b"a" * (70 * 1024) + b'"}'
        status, body = request(server, "/v1/jobs", raw=blob)
        assert status == 413
        assert body["error"]["code"] == "body_too_large"

    def test_quota_exhaustion_is_a_distinct_429(self, server):
        first_status, first = request(
            server, "/v1/jobs", {"tenant": "capped", "n_jobs": 5}
        )
        assert first_status == 200
        reasons = [o["reason"] for o in first["outcomes"]]
        assert reasons.count("quota") >= 3  # overflow past the quota of 2
        # Once exhausted, the whole request is refused up front.
        status, body = request(
            server, "/v1/jobs", {"tenant": "capped", "n_jobs": 1}
        )
        assert status == 429
        assert body["error"]["code"] == "quota_exhausted"
        assert "capped" in body["error"]["message"]

    def test_server_survives_every_error_class(self, server):
        request(server, "/v1/jobs", raw=b"{broken")
        request(server, "/v1/jobs", {"tenant": "nobody", "n_jobs": 1})
        request(server, "/v1/jobs", {"tenant": "roomy", "n_jobs": -3})
        request(server, "/v1/jobs", {"tenant": "capped", "n_jobs": 5})
        request(server, "/v1/jobs", {"tenant": "capped", "n_jobs": 1})  # 429
        status, body = request(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"

    def test_internal_fault_returns_500_and_keeps_serving(self, server):
        # Sabotage one handler path: an unregistered exception type must
        # surface as a 500, not kill the server loop.
        original = server.manager.submit_count
        server.manager.submit_count = lambda *a, **kw: (_ for _ in ()).throw(
            OSError("disk on fire")
        )
        try:
            status, body = request(
                server, "/v1/jobs", {"tenant": "roomy", "n_jobs": 1}
            )
        finally:
            server.manager.submit_count = original
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert "disk on fire" in body["error"]["message"]
        status, _ = request(server, "/v1/health")
        assert status == 200


# ----------------------------------------------------------------------
# Wire cost: one send per response, one executor call per submit
# ----------------------------------------------------------------------
class _CountingSocket(socket.socket):
    """An accepted connection that logs the size of every send.

    The size is logged before the send, so a client that has read the
    whole response always sees the log entry.
    """

    sends: list[int]

    def send(self, data, flags=0):
        self.sends.append(len(data))
        return super().send(data, flags)

    def sendall(self, data, flags=0):
        self.sends.append(len(data))
        return super().sendall(data, flags)


class _CountingServer(FleetAPIServer):
    """A front whose accepted connections log their sends."""

    def __init__(self, manager: FleetManager) -> None:
        self.sends: list[int] = []
        self.connections = 0
        super().__init__(manager, port=0)

    def get_request(self):
        conn, addr = super().get_request()
        counting = _CountingSocket(
            conn.family, conn.type, conn.proto, fileno=conn.detach()
        )
        counting.sends = self.sends
        self.connections += 1
        self.last_connection = counting
        return counting, addr


@pytest.fixture
def counting_server(server):
    srv = _CountingServer(server.manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def round_trip(conn, srv, method, path, body=None):
    """One request on a kept-alive connection: (status, body, sends)."""
    before = len(srv.sends)
    data = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=data,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    payload = resp.read()
    return resp.status, payload, len(srv.sends) - before


class TestOneSendPerResponse:
    CASES = [
        ("POST", "/v1/jobs", {"tenant": "roomy", "n_jobs": 3}, 200),
        ("GET", "/v1/metrics", None, 200),
        ("GET", "/v1/nope", None, 404),
        ("POST", "/v1/jobs", {"tenant": "roomy", "n_jobs": -3}, 400),
    ]

    @pytest.mark.parametrize(
        "method,path,body,status", CASES,
        ids=["json-200", "metrics-text-200", "404", "400-schema"],
    )
    def test_response_is_one_send(self, counting_server, method, path, body, status):
        host, port = counting_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            got, payload, sends = round_trip(conn, counting_server, method, path, body)
        finally:
            conn.close()
        assert got == status
        assert sends == 1
        assert counting_server.sends[-1] > len(payload)  # headers + body
        if status == 400:
            assert json.loads(payload)["error"]["code"] == "schema_violation"

    def test_keep_alive_serves_every_request_on_one_connection(
        self, counting_server
    ):
        host, port = counting_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for method, path, body, status in self.CASES:
                got, _, sends = round_trip(conn, counting_server, method, path, body)
                assert (got, sends) == (status, 1)
        finally:
            conn.close()
        assert counting_server.connections == 1

    def test_nagle_is_off(self, counting_server):
        # A body past the write buffer leaves in more than one send; with
        # Nagle on, the tail would wait for the client's delayed ACK.
        host, port = counting_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            status, _, _ = round_trip(conn, counting_server, "GET", "/v1/health")
            nodelay = counting_server.last_connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        finally:
            conn.close()
        assert status == 200
        assert nodelay

    def test_expect_100_continue_is_sent_before_the_body(self, server):
        # A buffered interim response would leave the client waiting for
        # a 100 Continue that only arrives with the final response.
        host, port = server.server_address[:2]
        body = json.dumps({"tenant": "roomy", "n_jobs": 1}).encode()
        head = (
            "POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(head)
            interim = b""
            while b"\r\n\r\n" not in interim:
                interim += sock.recv(1024)
            assert interim.startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            final = b""
            while b"\r\n\r\n" not in final:
                final += sock.recv(4096)
        assert final.startswith(b"HTTP/1.1 200")


@pytest.mark.parametrize("executor", ["inprocess", "multiprocess"])
def test_submit_is_one_executor_call_and_429_skips_synthesis(executor):
    registry = TenantRegistry(
        [TenantSpec(tenant_id="capped", quota_jobs=2)]
        + [TenantSpec(tenant_id=f"roomy-{i}") for i in range(4)]
    )
    manager = FleetManager(
        FleetConfig(n_shards=2, seed=2024, pretrain_jobs=40),
        registry,
        executor=executor,
    )
    home = manager.shard_index_for("capped")
    neighbour = next(
        t.tenant_id
        for t in registry
        if t.tenant_id != "capped" and manager.shard_index_for(t.tenant_id) == home
    )
    ops: list[str] = []
    call = manager.executor.call

    def counted_call(index, op, *args):
        ops.append(op)
        return call(index, op, *args)

    manager.executor.call = counted_call
    srv = FleetAPIServer(manager, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        status, first = request(srv, "/v1/jobs", {"tenant": "capped", "n_jobs": 5})
        assert status == 200
        assert ops == ["submit"]
        if executor == "inprocess":
            shard = manager.shard_for("capped")
            substream = (shard._next_job_id, shard._next_group_id)

        ops.clear()
        status, body = request(srv, "/v1/jobs", {"tenant": "capped", "n_jobs": 1})
        assert status == 429
        assert body["error"]["code"] == "quota_exhausted"
        assert "capped" in body["error"]["message"]
        assert ops == ["submit"]
        if executor == "inprocess":
            assert (shard._next_job_id, shard._next_group_id) == substream

        # The refused request drew no job: the shard's next job continues
        # the substream right after the last one it handed out.
        status, after = request(srv, "/v1/jobs", {"tenant": neighbour, "n_jobs": 1})
        assert status == 200
        assert after["outcomes"][0]["job_id"] == first["outcomes"][-1]["job_id"] + 1
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        manager.finish()
