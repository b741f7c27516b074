"""The service's status/query API: stdlib HTTP server + urllib client.

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
from what survived.

:class:`ServiceClient` is the matching urllib client the CLI's
``submit``/``status``/``cancel`` subcommands wrap.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.service.daemon import ResultsGone, ScanService, ServiceDraining
from repro.service.queue import AdmissionError, QueueError
from repro.service.spec import SpecError
from repro.store.store import StoreCorruption


class ApiError(RuntimeError):
    """Client-side wrapper of a non-2xx service response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def _make_handler(service: ScanService):
    class Handler(BaseHTTPRequestHandler):
        #: Quiet by default; the daemon's event log is the journal.
        def log_message(self, fmt: str, *args: object) -> None:
            pass

        # -- plumbing ------------------------------------------------------

        def _send(self, status: int, payload: object) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._send(status, {"error": message})

        def _read_body(self) -> Dict[str, object]:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0:
                return {}
            data = json.loads(self.rfile.read(length))
            if not isinstance(data, dict):
                raise ValueError("body must be a JSON object")
            return data

        def _route(self) -> Tuple[str, Dict[str, str]]:
            parsed = urllib.parse.urlsplit(self.path)
            query = {
                k: v[0]
                for k, v in urllib.parse.parse_qs(parsed.query).items()
            }
            return parsed.path.rstrip("/"), query

        # -- verbs ---------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - http.server API
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
                            {"rows": service.results(campaign_id, limit)},
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
            path, _ = self._route()
            try:
                if path == "/v1/campaigns":
                    record = service.submit(self._read_body())
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


class ServiceServer:
    """The HTTP front end, runnable in-process (tests) or foreground."""

    def __init__(
        self, service: ScanService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.httpd = ThreadingHTTPServer(
            (host, port), _make_handler(service)
        )
        self.httpd.daemon_threads = True
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
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class ServiceClient:
    """Minimal urllib client for the v1 API (what the CLI wraps)."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except Exception:
                message = str(exc)
            raise ApiError(exc.code, str(message)) from exc

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
