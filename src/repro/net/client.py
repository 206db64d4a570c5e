"""``ServiceClient``: the stdlib HTTP client of the checking fleet.

Built on ``urllib.request`` only.  Every call carries a timeout and a
bounded retry loop with jittered exponential backoff -- the fleet
analogue of hammering ``repro submit`` locally, and just as safe:

* **submits are idempotent** because the dedup key is the job's
  content-addressed identity (the server deduplicates active work
  with the same work description), so a retry after a lost response
  re-lands on the same job instead of enqueueing a duplicate;
* **reads are idempotent** trivially -- the server holds no state
  that is not the fold of the journal.

Retries cover what might heal (connection refused/reset, timeouts,
5xx); a 4xx is a fact about the request and is raised immediately as
:class:`ServiceClientError` with the server's wire error message.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from .wire import check_envelope, submit_to_wire

#: Statuses worth retrying: the daemon may be restarting or overloaded.
RETRY_STATUSES = frozenset({502, 503, 504})


class ServiceClientError(ReproError):
    """A request definitively failed (4xx, or retries exhausted)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """A client for one daemon's HTTP front-end.

    Args:
        base_url: e.g. ``http://host:8080`` (trailing slash tolerated).
        timeout: per-request socket timeout, seconds.
        retries: attempts beyond the first for retryable failures.
        backoff: base delay; attempt *n* sleeps ``backoff * 2**n``
            scaled by a uniform jitter in [0.5, 1.0) so a fleet of
            clients retrying together spreads out instead of stampeding.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.1,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.rng = rng or random.Random()

    # -- transport -----------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = (
            json.dumps(body, sort_keys=True).encode("utf-8")
            if body is not None
            else None
        )
        last_error: Optional[str] = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1))
                time.sleep(delay * (0.5 + self.rng.random() / 2))
            request = urllib.request.Request(
                url,
                data=data,
                method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as fh:
                    return self._decode(fh.read(), path)
            except urllib.error.HTTPError as exc:
                payload = exc.read()
                if exc.code in RETRY_STATUSES:
                    last_error = f"HTTP {exc.code}"
                    continue
                raise ServiceClientError(
                    self._error_message(payload, exc.code, path), status=exc.code
                ) from exc
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                reason = getattr(exc, "reason", exc)
                last_error = str(reason)
                continue
        raise ServiceClientError(
            f"{method} {url} failed after {self.retries + 1} attempt(s): "
            f"{last_error}"
        )

    @staticmethod
    def _decode(raw: bytes, path: str) -> Dict[str, Any]:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceClientError(
                f"response to {path} is not valid JSON: {exc}"
            ) from exc
        return check_envelope(data, f"response to {path}")

    @staticmethod
    def _error_message(raw: bytes, status: int, path: str) -> str:
        try:
            data = json.loads(raw.decode("utf-8"))
            message = data["error"]["message"]
        except Exception:  # noqa: BLE001 - any shape of non-wire error body
            message = raw.decode("utf-8", errors="replace").strip() or "no detail"
        return f"{path}: {message} (HTTP {status})"

    # -- the service surface -------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def submit(self, spec: str, priority: int = 0, **fields: Any) -> Dict[str, Any]:
        """Submit work (``fields`` are the plan's flat JSON fields);
        returns the wire job record.  Safe to retry: an active
        duplicate deduplicates server-side by the job's
        content-addressed identity."""
        body = submit_to_wire(spec, priority, **fields)
        reply = self._request("POST", "/v1/jobs", body)
        return reply["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def results(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/results/{job_id}")["result"]

    def wait(self, job_id: str, deadline: float = 60.0) -> Dict[str, Any]:
        """Poll until ``job_id`` leaves the queue; returns its record.

        Raises :class:`ServiceClientError` on timeout -- a fleet
        client's submit-and-wait primitive.
        """
        end = time.monotonic() + deadline
        while True:
            record = self.job(job_id)
            if record["status"] in ("done", "failed"):
                return record
            if time.monotonic() >= end:
                raise ServiceClientError(
                    f"job {job_id} still {record['status']} after "
                    f"{deadline:.0f}s"
                )
            time.sleep(min(0.05, self.timeout))

    # -- sync surface (consumed by repro.net.sync) ---------------------------

    def cache_keys(self) -> List[str]:
        return self._request("GET", "/v1/cache")["keys"]

    def cache_entry(self, key: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/cache/{key}")["entry"]

    def trace_names(self) -> List[str]:
        return self._request("GET", "/v1/traces")["names"]

    def trace(self, name: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/traces/{name}")["trace"]
