"""A small blocking client for the partition service.

Backs ``repro client`` (smoke use against a running daemon), the
service benchmark, and the CI smoke step.  Pure stdlib
(:mod:`http.client`), one keep-alive connection per
:class:`ServiceClient` instance — enough for scripts and load
generators without pulling in an HTTP dependency.

Retry policy: connection failures and 429 load-shed responses are
retried up to ``retries`` times with the runtime's seed-jittered
exponential backoff (:func:`repro.runtime.backoff_delay` — the same
derivation portfolio start retries use, so a fixed ``retry_seed``
replays the identical wait sequence).  A 429's ``Retry-After`` header
takes precedence over the computed delay; any other HTTP error is
surfaced immediately as :class:`ServiceError`.
"""

from __future__ import annotations

import http.client
import json
import math
import time
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.metrics import Histogram
from ..runtime import backoff_delay
from .protocol import HEADER_REQUEST_ID, HEADER_TRACE_ID

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ReproError):
    """A non-2xx response; ``status`` is the HTTP code and
    ``retry_after`` the parsed ``Retry-After`` header (seconds), when
    the server sent one."""

    def __init__(self, message: str, status: int = 0,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServiceClient:
    """Blocking JSON client bound to one ``host:port``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8349,
                 timeout: float = 300.0, retries: int = 2,
                 backoff_seconds: float = 0.25, backoff_cap: float = 5.0,
                 retry_seed: int = 0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.backoff_cap = backoff_cap
        self.retry_seed = retry_seed
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Monotonic per-request counter: the backoff jitter index, so
        #: two requests retrying concurrently don't share a wait
        #: sequence (and a replayed client reproduces its own).
        self._request_index = 0

    # -- plumbing ------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _sleep_before(self, attempt: int, index: int,
                      retry_after: Optional[float]) -> None:
        delay = backoff_delay(self.backoff_seconds, self.backoff_cap,
                              self.retry_seed, index, attempt)
        if retry_after is not None:
            delay = max(delay, retry_after)
        if delay > 0:
            time.sleep(delay)

    @staticmethod
    def _retry_after(response: http.client.HTTPResponse
                     ) -> Optional[float]:
        value = response.getheader("Retry-After")
        if value is None:
            return None
        try:
            return max(0.0, float(value))
        except ValueError:
            return None

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 headers: Optional[Dict[str, str]] = None
                 ) -> http.client.HTTPResponse:
        payload = None
        headers = dict(headers or {})
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        self._request_index += 1
        index = self._request_index
        attempts = max(1, self.retries + 1)
        for attempt in range(1, attempts + 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
            except (http.client.HTTPException, ConnectionError, OSError):
                # Stale keep-alive socket (server restarted, idle
                # timeout) or refused connection: back off and retry.
                self.close()
                if attempt >= attempts:
                    raise
                self._sleep_before(attempt + 1, index, None)
                continue
            if response.status == 429 and attempt < attempts:
                # Load shed: drain the body so the keep-alive socket
                # stays usable, then honor the server's Retry-After.
                retry_after = self._retry_after(response)
                response.read()
                self._sleep_before(attempt + 1, index, retry_after)
                continue
            return response
        raise AssertionError("unreachable")

    def _json(self, method: str, path: str,
              body: Optional[dict] = None,
              headers: Optional[Dict[str, str]] = None) -> dict:
        response = self._request(method, path, body, headers=headers)
        raw = response.read()
        if response.status >= 400:
            try:
                message = json.loads(raw).get("error", raw.decode())
            except (ValueError, AttributeError):
                message = raw.decode("utf-8", "replace")
            raise ServiceError(f"{path}: {message}",
                               status=response.status,
                               retry_after=self._retry_after(response))
        return json.loads(raw)

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def version(self) -> dict:
        return self._json("GET", "/version")

    def metrics(self) -> str:
        response = self._request("GET", "/metrics")
        raw = response.read()
        if response.status >= 400:
            raise ServiceError(f"/metrics: HTTP {response.status}",
                               status=response.status)
        return raw.decode("utf-8")

    def metric_value(self, name: str, **labels) -> float:
        """Read one sample from the text exposition (0.0 if absent)."""
        wanted = {f'{k}="{v}"' for k, v in labels.items()}
        for line in self.metrics().splitlines():
            if not line.startswith(name):
                continue
            rest = line[len(name):]
            if rest[:1] not in ("{", " "):
                continue
            label_part = rest[1:rest.index("}")] if \
                rest.startswith("{") else ""
            if wanted and not wanted <= set(label_part.split(",")):
                continue
            return float(line.rsplit(" ", 1)[1])
        return 0.0

    def histogram_quantile(self, name: str, q: float, **labels) -> float:
        """PromQL-style ``histogram_quantile`` over one scraped series.

        Reads the ``<name>_bucket`` samples matching ``labels`` from
        ``/metrics`` and interpolates inside the owning bucket — the
        same estimate the server's in-process
        :meth:`~repro.obs.metrics.Histogram.quantile` computes, so a
        client-side cross-check (bench_service.py) compares like with
        like.  ``nan`` when the series is absent or empty.
        """
        wanted = {f'{k}="{v}"' for k, v in labels.items()}
        buckets: List[Tuple[float, float]] = []
        prefix = f"{name}_bucket{{"
        for line in self.metrics().splitlines():
            if not line.startswith(prefix):
                continue
            label_part = line[len(prefix):line.index("}")]
            parts = set(label_part.split(","))
            if wanted and not wanted <= parts:
                continue
            le = next((p[4:-1] for p in parts if p.startswith('le="')),
                      None)
            if le is None:
                continue
            upper = math.inf if le == "+Inf" else float(le)
            buckets.append((upper, float(line.rsplit(" ", 1)[1])))
        # Fold the cumulative samples into a registry histogram, so
        # the estimate is the server's own.
        buckets.sort()
        cumulative = [count for _, count in buckets]
        hist = Histogram(tuple(u for u, _ in buckets if not math.isinf(u)))
        hist.counts = [b - a for a, b in zip([0.0] + cumulative, cumulative)]
        hist.counts += [0.0] * (len(hist.buckets) + 1 - len(hist.counts))
        hist.count = cumulative[-1] if cumulative else 0
        return hist.quantile(q)

    def status(self) -> dict:
        return self._json("GET", "/status")

    def profile(self) -> str:
        """The daemon's collapsed-stack wall profile (404 → error when
        profiling is off)."""
        response = self._request("GET", "/profile")
        raw = response.read()
        if response.status >= 400:
            raise ServiceError(f"/profile: HTTP {response.status}",
                               status=response.status)
        return raw.decode("utf-8")

    def partition(self, request: dict,
                  request_id: Optional[str] = None,
                  trace_id: Optional[str] = None) -> dict:
        headers = {}
        if request_id is not None:
            headers[HEADER_REQUEST_ID] = request_id
        if trace_id is not None:
            headers[HEADER_TRACE_ID] = trace_id
        return self._json("POST", "/partition", request,
                          headers=headers or None)

    def sweep(self, requests: List[dict]) -> str:
        return self._json("POST", "/sweep",
                          {"requests": requests})["job_id"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def wait_job(self, job_id: str, poll_seconds: float = 0.1,
                 timeout: float = 600.0) -> dict:
        """Poll until the job leaves queued/running; return its body."""
        import time
        deadline = time.monotonic() + timeout
        while True:
            body = self.job(job_id)
            if body["state"] not in ("queued", "running"):
                return body
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {body['state']} after "
                    f"{timeout:g}s")
            time.sleep(poll_seconds)

    def _download(self, path: str) -> bytes:
        response = self._request("GET", path)
        raw = response.read()
        if response.status >= 400:
            raise ServiceError(f"{path}: HTTP {response.status}",
                               status=response.status)
        return raw

    def trace(self, run_id: str) -> bytes:
        """Download a request's trace (``"trace": true``)."""
        return self._download(f"/trace/{run_id}")

    def record(self, run_id: str) -> bytes:
        """Download a request's decision recording
        (``"record": true`` in the partition body)."""
        return self._download(f"/record/{run_id}")
