"""``seance serve`` — the asyncio job front door.

Accepts spec+table submissions over HTTP and turns the "millions of
users" story into what it mostly is: **dedup**.  Four tiers, checked in
order for every submission:

1. **completed work** — the content-addressed store (a hot table is one
   synthesis *ever*, fleet-wide: warm submissions short-circuit to zero
   passes);
2. **in-flight work, this process** — submissions with the same
   :func:`~repro.store.keys.synthesis_key` digest that this server is
   already computing share one future (N concurrent identical
   submissions → exactly one synthesis, the rest await its result);
3. **in-flight work, the fleet** — before computing locally the server
   claims an ``inflight/<digest>`` *intent lease* in the store (the
   same :class:`~repro.service.leases.LeaseTable` mechanics the work
   queue claims units with).  A second ``seance serve`` process against
   the same store loses the claim, polls the store, and returns the
   peer's result (``source: "peer"``) — two servers perform exactly one
   synthesis per unique submission.  A crashed server's intent lapses
   and is stolen; an unreachable store degrades to leaseless local
   computation (duplicated work, never a wrong or missing result);
4. **fresh work** — a miss is either fanned to the work-stealing queue
   (``queue_id`` set: workers drain it, the server polls the store for
   the result) or synthesised locally in a small thread pool.

The door itself is hardened for deployment:

* **authentication** — with a ``token`` configured (``seance serve
  --token-file``), ``POST /submit`` requires ``Authorization: Bearer
  <token>``, compared constant-time (:func:`hmac.compare_digest`);
  failures answer 401 and consume no queue or synthesis work
  (``/healthz`` and ``/stats`` stay open for probes);
* **rate limiting** — a per-client token bucket (``--rate``/
  ``--burst``; the client is its ``X-Client-Id`` header, falling back
  to peer address) answers 429 with a ``retry_after`` hint and a
  ``Retry-After`` header *before* the body is even parsed;
* **backpressure** — ``--max-inflight`` bounds the in-flight table:
  submissions that would *start new work* past the bound answer 429
  ``busy`` (joins of already-running digests are always admitted —
  they cost nothing).

The wire surface is deliberately tiny (stdlib-only on both ends):

* ``POST /submit`` — body ``{"table": <table_to_dict>, "spec":
  <spec.to_dict(), optional>}``; the response carries the canonical
  result projection (diffable against ``seance batch --json
  --canonical``) plus provenance telemetry: ``store_hit`` /
  ``deduped`` / ``source`` and the :class:`~repro.pipeline.manager
  .PassEvent` stream of the synthesis this submission actually paid
  for (empty for warm, deduped, and peer-joined submissions — the
  assertion surface of the dedup tests).
* ``GET /stats`` — submission/rejection counters, queue occupancy, and
  the store transport's retry/breaker telemetry.
* ``GET /healthz`` — liveness.

Results always flow *through the store*, so everything the fleet
computes lands verified and reusable, and the server itself stays
stateless: kill it, restart it, and warm traffic is still warm.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import ReproError, StoreError
from ..store.store import open_store
from .leases import LeaseHeartbeat, LeaseTable
from .resilience import transport_snapshot

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServeStats:
    """Counters the dedup and hardening tests assert against
    (see ``GET /stats``)."""

    def __init__(self) -> None:
        self.submissions = 0
        self.store_hits = 0
        self.deduped = 0
        self.synthesized = 0
        self.queued = 0
        self.errors = 0
        #: Submissions answered by a *peer server's* synthesis through
        #: the store-leased in-flight tier.
        self.joined = 0
        #: Rejections, none of which consume queue or synthesis work.
        self.unauthorized = 0
        self.throttled = 0
        self.busy = 0

    def to_dict(self) -> dict:
        return {
            "submissions": self.submissions,
            "store_hits": self.store_hits,
            "deduped": self.deduped,
            "synthesized": self.synthesized,
            "queued": self.queued,
            "errors": self.errors,
            "joined": self.joined,
            "unauthorized": self.unauthorized,
            "throttled": self.throttled,
            "busy": self.busy,
        }


class TokenBucket:
    """Per-client token-bucket admission (``rate`` requests/second,
    bursting to ``burst``).  :meth:`acquire` answers 0.0 when admitted,
    else the seconds until a token will be available — the 429's
    ``retry_after``.  The client table is bounded: far beyond any
    plausible fleet, the oldest-refilled entry is dropped, whether the
    newcomer was admitted or throttled (a dropped client starts over
    with a full burst — generous, never wrong).
    """

    MAX_CLIENTS = 4096

    def __init__(self, rate: float, burst: float | None = None):
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(rate, 1.0)
        self._buckets: dict[str, tuple[float, float]] = {}
        self._lock = threading.Lock()

    def acquire(self, client: str) -> float:
        now = time.monotonic()
        with self._lock:
            tokens, last = self._buckets.pop(client, (self.burst, now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            admitted = tokens >= 1.0
            if admitted:
                tokens -= 1.0
            # Re-inserted at the end, so the dict stays in refill order
            # and its first key is the oldest-refilled client.
            self._buckets[client] = (tokens, now)
            if len(self._buckets) > self.MAX_CLIENTS:
                del self._buckets[next(iter(self._buckets))]
            return 0.0 if admitted else (1.0 - tokens) / self.rate


class SynthesisServer:
    """The front door (see the module docstring).

    ``queue_id`` selects queue mode (publish misses, await the store);
    without it misses are synthesised locally on ``jobs`` threads,
    behind a store-leased intent marker so peer servers join instead of
    duplicating.  ``submit_timeout`` bounds how long one submission
    waits on the fleet before reporting an error.  ``token`` /
    ``rate``+``burst`` / ``max_inflight`` arm the hardening layers
    (each None = off).
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_id: str | None = None,
        jobs: int = 2,
        poll: float = 0.05,
        submit_timeout: float = 300.0,
        lease_ttl: float = 30.0,
        token: str | None = None,
        rate: float | None = None,
        burst: float | None = None,
        max_inflight: int | None = None,
    ):
        resolved = open_store(store)
        if resolved is None:
            raise StoreError("seance serve needs a store location")
        self.store = resolved
        self.host = host
        self.port = port
        self.poll = poll
        self.submit_timeout = submit_timeout
        self.lease_ttl = float(lease_ttl)
        self.stats = ServeStats()
        self._token = token
        self._bucket = (
            TokenBucket(rate, burst=burst) if rate is not None else None
        )
        self.max_inflight = max_inflight
        self.queue = None
        if queue_id is not None:
            from .queue import WorkQueue

            self.queue = WorkQueue(
                resolved, queue_id, lease_ttl=lease_ttl
            )
        #: Fleet-level in-flight intent markers (dedup tier 3).
        self.intent = LeaseTable(
            resolved.backend, "inflight", ttl=self.lease_ttl
        )
        self._executor = ThreadPoolExecutor(max_workers=max(jobs, 1))
        self._inflight: dict[str, asyncio.Future] = {}
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def server_id(self) -> str:
        """This process's lease-owner identity (stable once started)."""
        return f"{socket.gethostname()}-{os.getpid()}-{self.port}"

    async def _start_async(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def start(self) -> SynthesisServer:
        """Run the server on a background thread (tests, smokes)."""
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self._start_async())
            started.set()
            try:
                loop.run_forever()
            finally:
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True)
        self._thread.start()
        if not started.wait(timeout=10):
            raise StoreError("service front door failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    def serve_forever(self) -> None:
        """Run in the calling thread (the ``seance serve`` process)."""

        async def _main() -> None:
            await self._start_async()
            print(f"seance serve: listening on {self.url}", flush=True)
            async with self._server:
                await self._server.serve_forever()

        asyncio.run(_main())

    def __enter__(self) -> SynthesisServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # HTTP plumbing (stdlib asyncio streams; one request per connection)
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        status, payload = 500, {"ok": False, "error": "internal error"}
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=30
            )
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                raise ValueError("malformed request line")
            method, target = parts[0], parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            body = await reader.readexactly(length) if length else b""
            peer = writer.get_extra_info("peername")
            try:
                status, payload = await self._route(
                    method, target, body, headers, peer
                )
            except Exception as error:  # noqa: BLE001 - must answer
                status, payload = 500, {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                }
        except (ValueError, UnicodeDecodeError, asyncio.TimeoutError):
            status, payload = 400, {"ok": False, "error": "bad request"}
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        data = (json.dumps(payload, sort_keys=True) + "\n").encode()
        extra = ""
        if isinstance(payload, dict) and "retry_after" in payload:
            extra = f"Retry-After: {payload['retry_after']:g}\r\n"
        head = (
            f"HTTP/1.1 {status} "
            f"{_STATUS_TEXT.get(status, 'ERROR')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + data)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str],
        peer,
    ) -> tuple[int, dict]:
        if method == "GET" and target == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and target == "/stats":
            payload = {
                "ok": True,
                "server": self.server_id,
                "stats": self.stats.to_dict(),
                "inflight": len(self._inflight),
            }
            transport = transport_snapshot(self.store.backend)
            if transport is not None:
                payload["transport"] = transport
            if self.queue is not None:
                loop = asyncio.get_running_loop()
                stats = await loop.run_in_executor(
                    None, self.queue.stats
                )
                payload["queue"] = {
                    "units": stats.units,
                    "done": stats.done,
                    "leased": stats.leased,
                    "expired": stats.expired,
                }
            return 200, payload
        if method == "POST" and target == "/submit":
            return await self._submit(body, headers, peer)
        return 404, {"ok": False, "error": f"no route {method} {target}"}

    # ------------------------------------------------------------------
    # Admission: auth, rate limit (both before the body is parsed)
    # ------------------------------------------------------------------
    def _admit(
        self, headers: dict[str, str], peer
    ) -> tuple[int, dict] | None:
        """The hardening gates; a (status, payload) rejection or None.
        Rejected requests consume no queue or synthesis work."""
        if self._token is not None:
            supplied = headers.get("authorization", "")
            expected = f"Bearer {self._token}"
            if not hmac.compare_digest(
                supplied.encode("utf-8", "replace"), expected.encode()
            ):
                self.stats.unauthorized += 1
                return 401, {"ok": False, "error": "unauthorized"}
        if self._bucket is not None:
            client = headers.get("x-client-id") or (
                str(peer[0]) if peer else "unknown"
            )
            wait = self._bucket.acquire(client)
            if wait > 0:
                self.stats.throttled += 1
                return 429, {
                    "ok": False,
                    "error": "rate limited",
                    "retry_after": round(max(wait, 0.001), 3),
                }
        return None

    # ------------------------------------------------------------------
    # Submission: store → in-flight (process) → in-flight (fleet) → fresh
    # ------------------------------------------------------------------
    async def _submit(
        self, body: bytes, headers: dict[str, str], peer
    ) -> tuple[int, dict]:
        from ..core.serialize import table_from_dict
        from ..pipeline.spec import PipelineSpec
        from ..store.keys import synthesis_key

        rejection = self._admit(headers, peer)
        if rejection is not None:
            return rejection

        try:
            payload = json.loads(body.decode())
            table = table_from_dict(payload["table"])
            spec = (
                PipelineSpec.from_dict(payload["spec"])
                if payload.get("spec")
                else PipelineSpec()
            )
        except (ReproError, ValueError, KeyError, TypeError) as error:
            self.stats.errors += 1
            return 400, {"ok": False, "error": f"bad submission: {error}"}

        self.stats.submissions += 1
        digest = synthesis_key(table, spec).digest
        loop = asyncio.get_running_loop()

        inflight = self._inflight.get(digest)
        if inflight is not None:
            # Tier 2: identical work already being computed — await the
            # shared future; this submission pays zero passes.  Joins
            # are always admitted: they add no work, so backpressure
            # never applies to them.
            self.stats.deduped += 1
            outcome = dict(await asyncio.shield(inflight))
            outcome["deduped"] = True
            outcome["passes"] = 0
            outcome["events"] = []
            return 200, outcome

        if (
            self.max_inflight is not None
            and len(self._inflight) >= self.max_inflight
        ):
            # Backpressure: starting new work would exceed the bound.
            self.stats.busy += 1
            return 429, {
                "ok": False,
                "error": "busy: in-flight table full",
                "retry_after": round(max(self.poll * 4, 0.05), 3),
            }

        future: asyncio.Future = loop.create_future()
        self._inflight[digest] = future
        try:
            outcome = await loop.run_in_executor(
                self._executor, self._resolve, table, spec, digest
            )
            future.set_result(outcome)
        except BaseException as error:
            future.set_exception(error)
            # Consume it so an abandoned future never warns.
            future.exception()
            self.stats.errors += 1
            raise
        finally:
            self._inflight.pop(digest, None)
        return 200, outcome

    def _resolve(self, table, spec, digest: str) -> dict:
        """Worker-thread body: store check, then queue or local synth."""
        stored = self.store.get_synthesis(table, spec)
        if stored is not None:
            # Tier 1: hot table, zero passes.
            self.stats.store_hits += 1
            return self._outcome(
                table.name, stored.result, stored.error,
                source="store", store_hit=True,
            )
        if self.queue is not None:
            return self._resolve_queued(table, spec)
        return self._resolve_local(table, spec, digest)

    def _resolve_local(self, table, spec, digest: str) -> dict:
        """Local synthesis behind a fleet-level intent lease (tier 3).

        Claim ``inflight/<digest>``: winners compute under a heartbeat
        and release; losers poll the store and answer with the peer's
        result (``source: "peer"``).  A lapsed intent (crashed peer) is
        stolen on the next pass; an unreadable lease with no stored
        result means the store itself is flaking — degrade to leaseless
        local computation, which is duplicated work at worst.
        """
        deadline = time.monotonic() + self.submit_timeout
        while True:
            if self.intent.claim(digest, self.server_id):
                try:
                    with LeaseHeartbeat(
                        self.intent, digest, self.server_id,
                        self.lease_ttl / 3.0,
                    ):
                        return self._compute_local(table, spec)
                finally:
                    self.intent.release(digest, self.server_id)
            lease = self.intent.read(digest)
            if lease is None:
                # Claim failed yet nothing is readable: the peer
                # released between our calls (result imminent) or the
                # store is unreachable.  The store decides.
                stored = self.store.get_synthesis(table, spec)
                if stored is not None:
                    self.stats.joined += 1
                    return self._outcome(
                        table.name, stored.result, stored.error,
                        source="peer",
                    )
                return self._compute_local(table, spec)
            # A live peer intent: wait for its result in the store.
            while time.monotonic() < deadline:
                stored = self.store.get_synthesis(table, spec)
                if stored is not None:
                    self.stats.joined += 1
                    return self._outcome(
                        table.name, stored.result, stored.error,
                        source="peer",
                    )
                lease = self.intent.read(digest)
                if lease is None:
                    break  # released or store flake: re-check above
                try:
                    expires = float(lease.get("expires", 0))
                except (TypeError, ValueError):
                    expires = 0.0
                if time.time() >= expires:
                    break  # lapsed: steal via the next claim
                time.sleep(self.poll)
            if time.monotonic() >= deadline:
                self.stats.errors += 1
                return self._timeout_outcome(table.name, "a peer server")

    def _compute_local(self, table, spec) -> dict:
        from ..pipeline.batch import BatchRunner

        item = BatchRunner(spec=spec, jobs=1, store=self.store).run(
            [table]
        )[0]
        if item.store_hit:
            self.stats.store_hits += 1
            return self._outcome(
                item.name, item.result, item.error,
                source="store", store_hit=True,
            )
        self.stats.synthesized += 1
        return self._outcome(
            item.name, item.result, item.error,
            source="local",
            events=[
                [event.name, round(event.seconds, 6), event.cache_hit]
                for event in item.events
            ],
        )

    def _resolve_queued(self, table, spec) -> dict:
        self.queue.publish_batch([table], spec=spec)
        self.stats.queued += 1
        deadline = time.monotonic() + self.submit_timeout
        while time.monotonic() < deadline:
            stored = self.store.get_synthesis(table, spec)
            if stored is not None:
                return self._outcome(
                    table.name, stored.result, stored.error,
                    source="queue",
                )
            time.sleep(self.poll)
        self.stats.errors += 1
        return self._timeout_outcome(table.name, "a worker")

    def _timeout_outcome(self, name: str, waited_on: str) -> dict:
        return {
            "ok": False,
            "name": name,
            "error": (
                f"timed out after {self.submit_timeout:g}s waiting for "
                f"{waited_on} to complete the unit"
            ),
            "result": None,
            "source": "queue" if self.queue is not None else "peer",
            "store_hit": False,
            "deduped": False,
            "passes": 0,
            "events": [],
        }

    @staticmethod
    def _outcome(
        name: str,
        result,
        error: str | None,
        source: str,
        store_hit: bool = False,
        events: list | None = None,
    ) -> dict:
        from ..core.serialize import canonical_result_dict

        events = events or []
        return {
            # The canonical projection quadruple — exactly one item of
            # `seance batch --json --canonical`, so clients can diff
            # merged streams byte-for-byte.
            "name": name,
            "ok": error is None,
            "error": error,
            "result": (
                canonical_result_dict(result.to_dict())
                if error is None
                else None
            ),
            # Provenance telemetry.
            "source": source,
            "store_hit": store_hit,
            "deduped": False,
            "passes": len(events),
            "events": events,
        }
