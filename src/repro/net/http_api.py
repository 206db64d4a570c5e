"""The stdlib HTTP front-end of a checking-service daemon.

``ServiceAPI`` is the transport-free core: ``handle(method, path,
body)`` maps one request to ``(status, wire body)``, holding **no
state of its own** -- every request folds the journal's newly appended
records and re-reads the cache directory, so whatever the HTTP layer reports can always be
rebuilt from the service root (killing the front-end loses nothing).
``HttpFrontend`` binds that core to a ``ThreadingHTTPServer`` running
on a daemon thread beside the claim loop.

Endpoints (all bodies are the versioned wire format, ``repro.net.wire``):

====================== ======================================================
``GET  /v1/healthz``    liveness: daemon id, service root, queue depth
``GET  /v1/stats``      jobs by status, cache size, fleet counters
``POST /v1/jobs``       submit (idempotent: active duplicates deduplicate)
``GET  /v1/jobs``       every job record
``GET  /v1/jobs/{id}``  one job record (404 on unknown id)
``GET  /v1/results/{id}``  finished result report (404 unknown, 409 pending)
``GET  /v1/cache``      content-addressed result-cache keys (for sync)
``GET  /v1/cache/{key}``   one raw cache entry (pull-on-miss / anti-entropy)
``GET  /v1/traces``     witness-trace corpus filenames (for sync)
``GET  /v1/traces/{name}`` one raw trace file
====================== ======================================================
"""

from __future__ import annotations

import json
import pathlib
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Type

from ..obs.instrument import Instrumentation
from ..service.cache import RESULT_CACHE_SUFFIX
from ..service.daemon import CheckingService
from ..trace.format import TRACE_SUFFIX
from .wire import (
    WireError,
    envelope,
    error_body,
    job_to_wire,
    submit_from_wire,
)

#: Content-addressed identifiers are SHA-256 hex; anything else in a
#: cache path segment is rejected before it touches the filesystem.
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")
#: Trace corpus filenames: one safe path segment ending in the trace
#: suffix (no separators, no parent references).
_TRACE_RE = re.compile(r"^[A-Za-z0-9._-]+$")

Reply = Tuple[int, Dict[str, Any]]


class ServiceAPI:
    """Stateless request handling over one :class:`CheckingService`."""

    def __init__(
        self,
        service: CheckingService,
        daemon_id: str = "",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.service = service
        self.daemon_id = daemon_id
        self.obs = obs

    # -- dispatch ------------------------------------------------------------

    def handle(self, method: str, path: str, body: Optional[bytes]) -> Reply:
        try:
            reply = self._route(method, path, body)
        except WireError as exc:
            reply = (400, error_body(str(exc), 400))
        except Exception as exc:  # noqa: BLE001 - the request boundary
            reply = (500, error_body(f"internal error: {exc}", 500))
        if self.obs is not None:
            self.obs.http_request(method, path, reply[0])
        return reply

    def _route(self, method: str, path: str, body: Optional[bytes]) -> Reply:
        parts = [p for p in path.split("?", 1)[0].split("/") if p]
        if not parts or parts[0] != "v1":
            return 404, error_body(f"unknown path {path!r}", 404)
        tail = parts[1:]
        if tail == ["healthz"] and method == "GET":
            return self._healthz()
        if tail == ["stats"] and method == "GET":
            return self._stats()
        if tail == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return self._jobs()
        if len(tail) == 2 and tail[0] == "jobs" and method == "GET":
            return self._job(tail[1])
        if len(tail) == 2 and tail[0] == "results" and method == "GET":
            return self._result(tail[1])
        if tail == ["cache"] and method == "GET":
            return self._cache_keys()
        if len(tail) == 2 and tail[0] == "cache" and method == "GET":
            return self._cache_entry(tail[1])
        if tail == ["traces"] and method == "GET":
            return self._trace_names()
        if len(tail) == 2 and tail[0] == "traces" and method == "GET":
            return self._trace(tail[1])
        if len(tail) <= 2 and tail[0] in ("jobs", "results", "cache", "traces"):
            return 405, error_body(f"{method} not allowed on {path!r}", 405)
        return 404, error_body(f"unknown path {path!r}", 404)

    # -- endpoints -----------------------------------------------------------

    def _healthz(self) -> Reply:
        jobs = self.service.queue.jobs()
        return 200, envelope(
            {
                "ok": True,
                "daemon": self.daemon_id,
                "root": str(self.service.root),
                "queued": sum(1 for j in jobs if j.status == "queued"),
                "running": sum(1 for j in jobs if j.status == "running"),
            }
        )

    def _stats(self) -> Reply:
        jobs = self.service.queue.jobs()
        by_status: Dict[str, int] = {}
        for job in jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        counters: Dict[str, int] = {}
        if self.obs is not None:
            counters = dict(self.obs.metrics.counters)
        return 200, envelope(
            {
                "daemon": self.daemon_id,
                "jobs": by_status,
                "total_jobs": len(jobs),
                "cache_entries": len(self.service.cache),
                "traces": len(self._trace_paths()),
                "counters": counters,
            }
        )

    def _submit(self, body: Optional[bytes]) -> Reply:
        if not body:
            raise WireError("submit body: empty request")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"submit body: not valid JSON ({exc})") from exc
        kwargs = submit_from_wire(data)
        before = {job.id for job in self.service.queue.jobs()}
        job = self.service.queue.submit(**kwargs)
        return 200, envelope(
            {"job": job_to_wire(job), "deduplicated": job.id in before}
        )

    def _jobs(self) -> Reply:
        jobs = self.service.queue.jobs()
        return 200, envelope({"jobs": [job_to_wire(job) for job in jobs]})

    def _job(self, job_id: str) -> Reply:
        job = self.service.queue.get(job_id)
        if job is None:
            return 404, error_body(f"unknown job id {job_id!r}", 404)
        return 200, envelope({"job": job_to_wire(job)})

    def _result(self, job_id: str) -> Reply:
        job = self.service.queue.get(job_id)
        if job is None:
            return 404, error_body(f"unknown job id {job_id!r}", 404)
        if job.status != "done":
            return 409, error_body(
                f"job {job_id} is {job.status}; no result yet", 409
            )
        payload = self.service.load_result(job_id)
        return 200, envelope({"job": job_id, "result": payload})

    # -- sync endpoints (consumed by repro.net.sync) -------------------------

    def _cache_keys(self) -> Reply:
        root = self.service.cache.root
        keys = []
        if root.is_dir():
            for path in sorted(root.iterdir()):
                if path.name.endswith(RESULT_CACHE_SUFFIX):
                    keys.append(path.name[: -len(RESULT_CACHE_SUFFIX)])
        return 200, envelope({"keys": keys})

    def _cache_entry(self, key: str) -> Reply:
        if not _KEY_RE.match(key):
            return 400, error_body(f"malformed cache key {key!r}", 400)
        path = self.service.cache.path_for(key)
        if not path.exists():
            return 404, error_body(f"no cache entry {key!r}", 404)
        return 200, envelope({"key": key, "entry": json.loads(path.read_text())})

    def _trace_paths(self) -> list:
        root = pathlib.Path(self.service.traces_dir)
        if not root.is_dir():
            return []
        return sorted(p for p in root.iterdir() if p.name.endswith(TRACE_SUFFIX))

    def _trace_names(self) -> Reply:
        return 200, envelope({"names": [p.name for p in self._trace_paths()]})

    def _trace(self, name: str) -> Reply:
        if not _TRACE_RE.match(name) or not name.endswith(TRACE_SUFFIX):
            return 400, error_body(f"malformed trace name {name!r}", 400)
        path = pathlib.Path(self.service.traces_dir) / name
        if not path.exists():
            return 404, error_body(f"no trace {name!r}", 404)
        return 200, envelope({"name": name, "trace": json.loads(path.read_text())})


def _make_handler(api: ServiceAPI) -> Type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args: Any) -> None:
            pass  # request accounting goes through obs, not stderr

        def _reply(self, method: str) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else None
            status, payload = api.handle(method, self.path, body)
            data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            self._reply("GET")

        def do_POST(self) -> None:
            self._reply("POST")

    return Handler


class HttpFrontend:
    """A ``ThreadingHTTPServer`` serving one :class:`ServiceAPI`.

    Threaded so a long peer sync download never blocks a client's
    submit.  Runs on a daemon thread; ``close`` shuts the socket down
    and joins.
    """

    def __init__(
        self, api: ServiceAPI, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.api = api
        self.server = ThreadingHTTPServer((host, port), _make_handler(api))
        self.host, self.port = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            name=f"repro-http-{self.port}",
            daemon=True,
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpFrontend":
        self._thread.start()
        return self

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5.0)
