"""Blocking HTTP client for the sweep service (stdlib ``http.client``).

Two layers:

* :class:`ServiceClient` — one method per daemon endpoint, plus a
  :meth:`~ServiceClient.stream_results` generator that yields stream
  records (``cell`` / ``job_end``) as the daemon flushes them.
* :func:`run_cells_via_service` — the drop-in execution path behind
  ``run_cells_detailed(..., service=...)``: encode the cells, submit,
  stream, decode, and hand back the same ``(results, report)`` pair the
  direct engine returns, in the same cell order. The cache directory and
  the policy's obs/guard directories are resolved to absolute paths
  before submission so the daemon (a different process, possibly a
  different cwd) writes the exact files a direct run would — that plus
  the invertible codec is the whole bit-identity story on the client
  side.

Backpressure: a 429 from the daemon carries ``Retry-After``; submission
sleeps and retries a bounded number of times before surfacing
:class:`ServiceError`, so sweeps queued behind a busy daemon degrade to
waiting, not failing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import urllib.parse
from typing import TYPE_CHECKING

from repro.experiments.parallel import CellResult, ExecutionReport
from repro.service.protocol import JobSpec, ProtocolError, decode_as, encode_value
from repro.util.errors import ReproError

if TYPE_CHECKING:
    import http.client

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceSpec",
    "resolve_service_url",
    "run_cells_via_service",
]


class ServiceError(ReproError):
    """The daemon is unreachable, rejected a request, or a job failed."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


@dataclasses.dataclass(frozen=True)
class ServiceSpec:
    """How to reach the service: what ``--service``/``--priority`` carry.

    ``url`` may be an ``http://host:port`` base URL or a path to a
    daemon store directory, whose ``endpoint`` file names the live URL
    (handy with ``--port 0``).
    """

    url: str
    priority: str = "normal"


def resolve_service_url(url: str) -> str:
    """Turn a ``--service`` value into a base URL.

    Accepts a literal ``http://`` URL, or a daemon ``--store`` directory
    (or its ``endpoint`` file) to follow the advertised endpoint.
    """
    if url.startswith("http://") or url.startswith("https://"):
        return url.rstrip("/")
    path = url[: -len("/endpoint")] if url.endswith("/endpoint") else url
    if os.path.isdir(path) or os.path.isfile(os.path.join(path, "endpoint")):
        from repro.service.jobstore import JobStore

        advertised = JobStore(path).read_endpoint()
        if advertised is None:
            raise ServiceError(
                f"no endpoint file under {path!r}; is the daemon running?"
            )
        return advertised.rstrip("/")
    raise ServiceError(
        f"--service expects an http:// URL or a daemon store directory, got {url!r}"
    )


class ServiceClient:
    """Thin blocking wrapper over the daemon's HTTP+JSONL API."""

    def __init__(self, url: str, timeout: float = 30.0):
        base = resolve_service_url(url)
        parsed = urllib.parse.urlsplit(base)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceError(f"unsupported service URL {base!r}")
        self.url = base
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------------

    def _connect(self, timeout: float | None) -> http.client.HTTPConnection:
        # Imported here: http.client pulls in ssl and email (about 6 MB of
        # RSS), which a process that never talks to a daemon should not pay.
        import http.client

        return http.client.HTTPConnection(self.host, self.port, timeout=timeout)

    def _request(self, method: str, path: str, body: dict | None = None):
        """One request/response; returns (status, headers, parsed JSON)."""
        conn = self._connect(self.timeout)
        try:
            payload = None
            headers = {"Connection": "close"}
            if body is not None:
                payload = json.dumps(body, sort_keys=True).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except OSError as exc:
                raise ServiceError(
                    f"service at {self.url} unreachable ({path}): {exc}"
                ) from exc
            try:
                parsed = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                parsed = {"error": raw.decode("utf-8", "replace").strip()}
            return resp.status, dict(resp.getheaders()), parsed
        finally:
            conn.close()

    @staticmethod
    def _check(status: int, payload: dict, what: str) -> dict:
        if status >= 400:
            raise ServiceError(
                f"{what} failed: HTTP {status}: {payload.get('error', payload)}",
                status=status,
            )
        return payload

    # -- endpoints ---------------------------------------------------------------

    def health(self) -> dict:
        status, _, payload = self._request("GET", "/v1/health")
        return self._check(status, payload, "health check")

    def jobs(self) -> list[dict]:
        status, _, payload = self._request("GET", "/v1/jobs")
        return self._check(status, payload, "job listing").get("jobs", [])

    def job(self, job_id: str) -> dict:
        status, _, payload = self._request("GET", f"/v1/jobs/{job_id}")
        return self._check(status, payload, f"status of {job_id}")

    def cancel(self, job_id: str) -> dict:
        status, _, payload = self._request("POST", f"/v1/jobs/{job_id}/cancel")
        return self._check(status, payload, f"cancel of {job_id}")

    def pause(self) -> dict:
        status, _, payload = self._request("POST", "/v1/control/pause")
        return self._check(status, payload, "pause")

    def resume(self) -> dict:
        status, _, payload = self._request("POST", "/v1/control/resume")
        return self._check(status, payload, "resume")

    def submit(self, spec: JobSpec, retries: int = 10, max_sleep_s: float = 10.0):
        """Submit a job; honors 429 + Retry-After. Returns the 201 body."""
        wire = encode_value(spec)
        attempt = 0
        while True:
            status, headers, payload = self._request("POST", "/v1/jobs", body=wire)
            if status != 429:
                return self._check(status, payload, "job submission")
            attempt += 1
            if attempt > retries:
                raise ServiceError(
                    f"service at {self.url} still at capacity after "
                    f"{retries} retries: {payload.get('error', '')}",
                    status=429,
                )
            retry_after = headers.get("Retry-After") or headers.get("retry-after")
            try:
                sleep_s = float(retry_after)
            except (TypeError, ValueError):
                sleep_s = 1.0
            time.sleep(min(max(sleep_s, 0.05), max_sleep_s))

    def stream_results(self, job_id: str):
        """Yield stream records (dicts) until the terminal ``job_end``.

        Reads the unframed JSONL response line by line; the daemon holds
        the connection open for non-terminal jobs and flushes each record
        as it lands, so iteration blocks on live progress. No read
        timeout is applied — jobs are allowed to be long.
        """
        conn = self._connect(None)
        try:
            try:
                conn.request(
                    "GET",
                    f"/v1/jobs/{job_id}/results",
                    headers={"Connection": "close"},
                )
                resp = conn.getresponse()
            except OSError as exc:
                raise ServiceError(
                    f"service at {self.url} unreachable (results of {job_id}): {exc}"
                ) from exc
            if resp.status >= 400:
                raw = resp.read()
                try:
                    detail = json.loads(raw.decode("utf-8")).get("error", "")
                except ValueError:
                    detail = raw.decode("utf-8", "replace").strip()
                raise ServiceError(
                    f"results of {job_id} failed: HTTP {resp.status}: {detail}",
                    status=resp.status,
                )
            for raw_line in resp:
                line = raw_line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    raise ServiceError(
                        f"undecodable stream line from {job_id}: {line[:200]!r}"
                    ) from exc
                yield rec
                if isinstance(rec, dict) and rec.get("kind") == "job_end":
                    return
        finally:
            conn.close()

def _abspath_config(cfg):
    """Rebase a config's ``dir`` to an absolute path (or pass it through)."""
    if cfg is None or cfg.dir is None or os.path.isabs(cfg.dir):
        return cfg
    return dataclasses.replace(cfg, dir=os.path.abspath(cfg.dir))


def run_cells_via_service(
    service,
    cells,
    jobs: int = 1,
    cache=None,
    policy=None,
    use_journal: bool = True,
    on_result=None,
):
    """Execute a sweep through the daemon; same contract as the direct path.

    Returns ``(list[CellResult], ExecutionReport)`` with results in cell
    order. ``service`` is a :class:`ServiceSpec` or a bare URL/store
    path. The per-job parallelism (``jobs``), cache directory and fault
    policy travel with the job and are applied by the daemon's engine
    verbatim.
    """
    if isinstance(service, str):
        service = ServiceSpec(url=service)
    cells = list(cells)
    cache_dir = getattr(cache, "root", cache)
    if cache_dir is not None:
        cache_dir = os.path.abspath(os.fspath(cache_dir))
    if policy is not None:
        policy = dataclasses.replace(
            policy, obs=_abspath_config(policy.obs), guard=_abspath_config(policy.guard)
        )
    spec = JobSpec(
        cells=cells,
        priority=service.priority,
        jobs=jobs,
        cache=cache_dir,
        use_journal=use_journal,
        policy=policy,
    )
    client = ServiceClient(service.url)
    job_id = client.submit(spec)["id"]

    by_index: dict[int, object] = {}
    end = None
    for rec in client.stream_results(job_id):
        kind = rec.get("kind")
        if kind == "cell":
            try:
                result = decode_as(rec.get("result"), CellResult)
            except ProtocolError as exc:
                raise ServiceError(
                    f"bad cell record from job {job_id}: {exc}"
                ) from exc
            if result.index in by_index:
                continue  # replay/live overlap; first copy wins
            by_index[result.index] = result
            if on_result is not None:
                on_result(result)
        elif kind == "job_end":
            end = rec
    if end is None:
        raise ServiceError(
            f"result stream of job {job_id} ended without a job_end record"
        )
    state = end.get("state")
    if state != "done":
        raise ServiceError(
            f"job {job_id} finished {state!r}: {end.get('error') or 'no detail'}"
        )
    missing = [i for i in range(len(cells)) if i not in by_index]
    if missing:
        raise ServiceError(
            f"job {job_id} completed but cells {missing} have no result record"
        )
    try:
        report = decode_as(end.get("report"), ExecutionReport)
    except ProtocolError as exc:
        raise ServiceError(f"job {job_id} job_end has no report: {exc}") from exc
    results = [by_index[i] for i in range(len(cells))]
    return results, report
