"""The service's status/query API: stdlib HTTP/1.1 server + client.

The surface is deliberately small and JSON-everywhere::

    POST /v1/campaigns            submit (body = CampaignSpec dict)
    GET  /v1/campaigns            list (?tenant= filters)
    GET  /v1/campaigns/<id>       one campaign's queue record
    POST /v1/campaigns/<id>/cancel
    GET  /v1/campaigns/<id>/results   committed rows (?limit= caps)
    GET  /v1/status               service summary (queue, fleet, p99 TTFR)

Built on :class:`http.server.ThreadingHTTPServer` so no dependency is
added; handler threads call straight into the thread-safe
:class:`~repro.service.daemon.ScanService` API.  Errors map to status
codes: admission rejections are 429, draining is 503, unknown ids 404,
malformed submissions 400, and a submit or cancel the queue could not
make durable (disk full, I/O error) is 503 — nothing was queued or
changed, so the client may retry — every body is a JSON object with an
``error`` field on failure.  ``/results`` adds three: a ``limit`` that is
not a non-negative integer is 400 (``limit=0`` is an empty list), a round
retention has since dropped is 410, and a store fault met while reading
is 500 carrying the quarantine message — the request after it is served
from what survived.  Its body is written from the packed rows
(:meth:`~repro.core.rows.Rows.json`), byte for byte what ``json.dumps``
of the rows' dicts would be.

The server speaks HTTP/1.1: a connection stays open across requests (one
handler thread per connection) until the client closes it, it sits idle
or stalls mid-request for :data:`HANDLER_TIMEOUT_S`, or the server stops
— :meth:`ServiceServer.stop` shuts down every connection it still holds.
A request body is read whole before the request is routed, so an
answered error never leaves the connection out of step; a body declared
larger than :data:`MAX_BODY_BYTES` is refused with 413 and the connection
closed.

:class:`ServiceClient` is the matching client the CLI's
``submit``/``status``/``cancel`` subcommands wrap.  It keeps one
persistent connection per calling thread.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.core.rows import Rows
from repro.service.daemon import ResultsGone, ScanService, ServiceDraining
from repro.service.queue import AdmissionError, QueueError
from repro.service.spec import SpecError
from repro.store.store import StoreCorruption

#: Largest request body the server reads; a larger one is a 413.
MAX_BODY_BYTES = 1 << 20
#: Seconds a handler waits on its socket (an idle keep-alive connection,
#: a body that stops short of its ``Content-Length``) before closing it.
HANDLER_TIMEOUT_S = 10.0


class ApiError(RuntimeError):
    """Client-side wrapper of a non-2xx service response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def _rows_body(rows: Rows) -> bytes:
    """``json.dumps({"rows": rows.dicts()}).encode()``, from the rows."""
    return ('{"rows": [%s]}' % ", ".join(rows.json())).encode()


def _make_handler(service: ScanService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: Headers and body go out as two writes; with Nagle's algorithm
        #: the second waits out the client's delayed ACK.
        disable_nagle_algorithm = True
        timeout = HANDLER_TIMEOUT_S

        #: Quiet by default; the daemon's event log is the journal.
        def log_message(self, fmt: str, *args: object) -> None:
            pass

        # -- plumbing ------------------------------------------------------

        def _send(self, status: int, payload: object) -> None:
            """Answer with ``payload`` as JSON (``bytes`` go as they are)."""
            body = (payload if isinstance(payload, bytes)
                    else json.dumps(payload).encode())
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._send(status, {"error": message})

        def _read_body(self) -> Optional[bytes]:
            """The whole request body, read before routing so the next
            request on the connection starts where this one ends.  None
            when there is nothing to route: the request was refused here
            (bad or oversized ``Content-Length``) or the client hung up
            mid-body.  A body that stalls raises ``TimeoutError``, which
            closes the connection."""
            declared = self.headers.get("Content-Length", "0")
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0 or length > MAX_BODY_BYTES:
                self.close_connection = True
                if length < 0:
                    self._error(400, f"bad Content-Length {declared!r}")
                else:
                    self._error(413, f"body of {length} bytes is over the "
                                     f"{MAX_BODY_BYTES}-byte limit")
                return None
            data = self.rfile.read(length) if length else b""
            if len(data) < length:
                self.close_connection = True
                return None
            return data

        @staticmethod
        def _parse(data: bytes) -> Dict[str, object]:
            if not data:
                return {}
            parsed = json.loads(data)
            if not isinstance(parsed, dict):
                raise ValueError("body must be a JSON object")
            return parsed

        def _route(self) -> Tuple[str, Dict[str, str]]:
            parsed = urllib.parse.urlsplit(self.path)
            query = {
                k: v[0]
                for k, v in urllib.parse.parse_qs(parsed.query).items()
            }
            return parsed.path.rstrip("/"), query

        # -- verbs ---------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self._read_body() is None:
                return
            path, query = self._route()
            try:
                if path == "/v1/status":
                    self._send(200, service.service_status())
                elif path == "/v1/campaigns":
                    self._send(
                        200,
                        {"campaigns": service.list_campaigns(
                            tenant=query.get("tenant")
                        )},
                    )
                elif path.startswith("/v1/campaigns/"):
                    rest = path[len("/v1/campaigns/"):]
                    if rest.endswith("/results"):
                        campaign_id = rest[: -len("/results")]
                        limit = (
                            int(query["limit"]) if "limit" in query else None
                        )
                        self._send(
                            200,
                            _rows_body(service.results(campaign_id, limit)),
                        )
                    else:
                        self._send(200, service.status(rest))
                else:
                    self._error(404, f"no route {path}")
            except QueueError as exc:
                self._error(404, str(exc))
            except (ValueError, SpecError) as exc:
                self._error(400, str(exc))
            except ResultsGone as exc:
                self._error(410, str(exc))
            except StoreCorruption as exc:
                self._error(500, str(exc))

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            body = self._read_body()
            if body is None:
                return
            path, _ = self._route()
            try:
                if path == "/v1/campaigns":
                    record = service.submit(self._parse(body))
                    self._send(201, record)
                elif path.startswith("/v1/campaigns/") and path.endswith(
                    "/cancel"
                ):
                    campaign_id = path[len("/v1/campaigns/"): -len("/cancel")]
                    self._send(200, service.cancel(campaign_id))
                else:
                    self._error(404, f"no route {path}")
            except ServiceDraining as exc:
                self._error(503, str(exc))
            except AdmissionError as exc:
                self._error(429, str(exc))
            except QueueError as exc:
                self._error(404, str(exc))
            except (ValueError, SpecError) as exc:
                self._error(400, str(exc))
            except OSError as exc:
                # The queue is write-ahead: what could not be made durable
                # did not happen.
                self._error(503, f"queue state not durable: {exc}")

    return Handler


class _Server(ThreadingHTTPServer):
    """A threading server that knows the connections it holds open, so
    stopping it can close them (a keep-alive handler thread would
    otherwise sit in ``readline`` until its timeout)."""

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        self._open: set = set()
        self._open_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._open_lock:
            held = list(self._open)
        for request in held:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone


class ServiceServer:
    """The HTTP front end, runnable in-process (tests) or foreground."""

    def __init__(
        self, service: ScanService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.httpd = _Server((host, port), _make_handler(service))
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        # ``stop()`` waits out one shutdown poll; the stdlib default of
        # 0.5 s would make every stop/drain cost half a second.
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="service-http", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the listening socket, then cut every
        connection still open (idle keep-alive ones included)."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)


class _Connection(http.client.HTTPConnection):
    """A kept connection, closed once neither its thread nor its client
    holds it (the server speaks plain HTTP only)."""

    def __del__(self) -> None:
        self.close()


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle pooled socket has become readable — the peer closed
    it (or sent bytes nobody asked for) — by a zero-timeout poll."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class ServiceClient:
    """Minimal client for the v1 API (what the CLI wraps).

    Each calling thread gets one persistent HTTP/1.1 connection.  Before a
    kept connection is reused it is polled, and dropped if the server has
    closed it; a GET whose reused connection still turns out dead is sent
    once more on a fresh one, a POST never is once its bytes went out."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._netloc, self._prefix = parts.netloc, parts.path
        self._local = threading.local()

    def _connection(self) -> Tuple[_Connection, bool]:
        """This thread's connection, and whether it has been used before."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and (
            connection.sock is None or _dropped(connection.sock)
        ):
            connection.close()
            connection = None
        if connection is None:
            connection = self._local.connection = _Connection(
                self._netloc, timeout=self.timeout
            )
            return connection, False
        return connection, True

    def _forget(self, connection: _Connection) -> None:
        connection.close()
        self._local.connection = None

    def _exchange(
        self, method: str, path: str, data: Optional[bytes]
    ) -> Tuple[int, str, bytes]:
        """(status, reason, body) of one request on this thread's
        connection."""
        while True:
            connection, reused = self._connection()
            try:
                connection.request(
                    method, self._prefix + path, body=data,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = response.read()
            except ConnectionError:
                self._forget(connection)
                if reused and method == "GET":
                    continue  # the kept connection died under us: once more
                raise
            except BaseException:
                self._forget(connection)
                raise
            if response.will_close:
                self._forget(connection)
            return response.status, response.reason, body

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        data = None if body is None else json.dumps(body).encode()
        status, reason, payload = self._exchange(method, path, data)
        if not 200 <= status < 300:
            try:
                message = json.loads(payload).get(
                    "error", f"HTTP Error {status}: {reason}"
                )
            except Exception:
                message = f"HTTP Error {status}: {reason}"
            raise ApiError(status, str(message))
        return json.loads(payload)

    def submit(self, spec: Dict[str, object]) -> Dict[str, object]:
        return self._request("POST", "/v1/campaigns", spec)

    def status(self, campaign_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/campaigns/{campaign_id}")

    def list_campaigns(
        self, tenant: Optional[str] = None
    ) -> List[Dict[str, object]]:
        path = "/v1/campaigns"
        if tenant is not None:
            path += "?" + urllib.parse.urlencode({"tenant": tenant})
        return self._request("GET", path)["campaigns"]  # type: ignore[return-value]

    def cancel(self, campaign_id: str) -> Dict[str, object]:
        return self._request("POST", f"/v1/campaigns/{campaign_id}/cancel")

    def results(
        self, campaign_id: str, limit: Optional[int] = None
    ) -> List[Dict[str, object]]:
        path = f"/v1/campaigns/{campaign_id}/results"
        if limit is not None:
            path += "?" + urllib.parse.urlencode({"limit": limit})
        return self._request("GET", path)["rows"]  # type: ignore[return-value]

    def service_status(self) -> Dict[str, object]:
        return self._request("GET", "/v1/status")
