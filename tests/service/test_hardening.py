"""The hardened front door and fleet-level dedup.

Three gates (token auth, per-client rate limit, bounded in-flight) and
the store-leased intent markers that let two ``seance serve`` processes
share one store without duplicating synthesis.  The acceptance pins:
rejected clients consume no queue or synthesis work, and two servers
racing on one submission pay for exactly one synthesis (PassEvent
telemetry: exactly one response carries passes > 0).
"""

import threading
import time

import pytest

from repro.bench import benchmark
from repro.errors import StoreError
from repro.pipeline.spec import PipelineSpec
from repro.service import (
    LeaseTable,
    ServiceClient,
    SynthesisServer,
    TokenBucket,
)
from repro.store import open_store
from repro.store.keys import synthesis_key


class TestTokenBucket:
    def test_burst_admits_then_throttles(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.acquire("a") == 0.0
        assert bucket.acquire("a") == 0.0
        wait = bucket.acquire("a")
        assert wait > 0.0

    def test_clients_have_independent_buckets(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.acquire("a") == 0.0
        assert bucket.acquire("a") > 0.0
        assert bucket.acquire("b") == 0.0

    def test_refill_restores_tokens(self):
        bucket = TokenBucket(rate=50.0, burst=1.0)
        assert bucket.acquire("a") == 0.0
        assert bucket.acquire("a") > 0.0
        time.sleep(0.05)
        assert bucket.acquire("a") == 0.0

    def test_client_table_is_bounded_when_every_client_is_admitted(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        for n in range(3 * TokenBucket.MAX_CLIENTS):
            assert bucket.acquire(f"client-{n}") == 0.0
        assert len(bucket._buckets) <= TokenBucket.MAX_CLIENTS

    def test_eviction_drops_the_oldest_refilled_client(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        for n in range(TokenBucket.MAX_CLIENTS):
            bucket.acquire(f"client-{n}")
        bucket.acquire("client-0")  # refilled last: now the newest
        bucket.acquire("newcomer")
        assert "client-0" in bucket._buckets
        assert "client-1" not in bucket._buckets
        assert len(bucket._buckets) == TokenBucket.MAX_CLIENTS


class TestAuth:
    def test_missing_token_rejected_without_work(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", token="hunter2"
        ) as server:
            with pytest.raises(StoreError, match="401"):
                ServiceClient(server.url).submit(benchmark("lion"))
            assert server.stats.unauthorized == 1
            # Rejected before parsing: no submission, no synthesis.
            assert server.stats.submissions == 0
            assert server.stats.synthesized == 0

    def test_wrong_token_rejected(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", token="hunter2"
        ) as server:
            client = ServiceClient(server.url, token="password1")
            with pytest.raises(StoreError, match="401"):
                client.submit(benchmark("lion"))
            assert server.stats.unauthorized == 1

    def test_right_token_admitted(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", token="hunter2"
        ) as server:
            client = ServiceClient(server.url, token="hunter2")
            outcome = client.submit(benchmark("lion"))
            assert outcome["ok"] is True
            assert server.stats.unauthorized == 0

    def test_health_and_stats_stay_open(self, tmp_path):
        """Probes don't need credentials — they consume no work."""
        with SynthesisServer(
            store=tmp_path / "s", token="hunter2"
        ) as server:
            client = ServiceClient(server.url)
            assert client.health() is True
            assert client.stats()["ok"] is True


class TestRateLimit:
    def test_over_quota_throttled_then_recovers(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", rate=20.0, burst=1.0
        ) as server:
            client = ServiceClient(
                server.url, timeout=30.0, client_id="c1"
            )
            # Burst of 1: the second submission is throttled, the
            # client honours retry_after and eventually lands.
            assert client.submit(benchmark("lion"))["ok"] is True
            assert client.submit(benchmark("traffic"))["ok"] is True
            assert server.stats.throttled >= 1

    def test_over_quota_with_no_budget_raises(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", rate=0.01, burst=1.0
        ) as server:
            client = ServiceClient(
                server.url, timeout=0.2, client_id="c1"
            )
            assert client.submit(benchmark("lion"))["ok"] is True
            with pytest.raises(StoreError, match="429"):
                client.submit(benchmark("traffic"))
            assert server.stats.throttled >= 1
            # The throttled submission consumed no synthesis.
            assert server.stats.synthesized == 1

    def test_buckets_are_per_client(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", rate=0.01, burst=1.0
        ) as server:
            first = ServiceClient(
                server.url, timeout=0.2, client_id="hog"
            )
            assert first.submit(benchmark("lion"))["ok"] is True
            with pytest.raises(StoreError):
                first.submit(benchmark("traffic"))
            other = ServiceClient(
                server.url, timeout=5.0, client_id="polite"
            )
            assert other.submit(benchmark("traffic"))["ok"] is True


class TestBackpressure:
    def test_zero_inflight_bound_answers_busy(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", max_inflight=0
        ) as server:
            client = ServiceClient(server.url, timeout=0.3)
            with pytest.raises(StoreError, match="429"):
                client.submit(benchmark("lion"))
            assert server.stats.busy >= 1
            assert server.stats.synthesized == 0

    def test_joins_are_admitted_past_the_bound(self, tmp_path):
        """Identical racing submissions join the in-flight future —
        they add no work, so the bound never rejects them."""
        from .test_server import submit_concurrently

        with SynthesisServer(
            store=tmp_path / "s", jobs=4, max_inflight=1
        ) as server:
            client = ServiceClient(server.url)
            outcomes = submit_concurrently(
                client, benchmark("lion"), count=5
            )
            assert all(o["ok"] for o in outcomes)
            paying = [o for o in outcomes if o["passes"] > 0]
            assert len(paying) == 1
            assert server.stats.busy == 0


class TestFleetDedup:
    """Two servers, one store: the intent-lease tier."""

    def test_racing_servers_pay_one_synthesis(self, tmp_path):
        store = tmp_path / "s"
        with SynthesisServer(store=store, jobs=2) as one:
            with SynthesisServer(store=store, jobs=2) as two:
                table = benchmark("lion")
                outcomes = [None, None]
                barrier = threading.Barrier(2)

                def hit(slot, url):
                    barrier.wait()
                    outcomes[slot] = ServiceClient(url).submit(table)

                threads = [
                    threading.Thread(target=hit, args=(0, one.url)),
                    threading.Thread(target=hit, args=(1, two.url)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

                assert all(o["ok"] for o in outcomes)
                assert outcomes[0]["result"] == outcomes[1]["result"]
                # The fleet paid exactly once.
                assert one.stats.synthesized + two.stats.synthesized == 1
                paying = [o for o in outcomes if o["passes"] > 0]
                assert len(paying) == 1
                joiner = next(o for o in outcomes if o["passes"] == 0)
                assert joiner["source"] in ("peer", "store")

    def test_lapsed_intent_of_crashed_server_is_stolen(self, tmp_path):
        """A SIGKILLed server leaves its ``inflight/<digest>`` marker
        behind; a live server must steal it and compute, not wait for
        the full submit timeout."""
        store = tmp_path / "s"
        table = benchmark("lion")
        digest = synthesis_key(table, PipelineSpec()).digest
        backend = open_store(store).backend
        corpse = LeaseTable(backend, "inflight", ttl=0.05)
        assert corpse.claim(digest, "server-that-died")

        time.sleep(0.1)  # let the orphan lapse
        with SynthesisServer(
            store=store, poll=0.01, submit_timeout=30.0
        ) as server:
            started = time.monotonic()
            outcome = ServiceClient(server.url).submit(table)
            elapsed = time.monotonic() - started
            assert outcome["ok"] is True
            assert server.stats.synthesized == 1
            assert elapsed < 10.0
        # The steal is recorded on the (since released) lease row's
        # successor; the marker itself must be gone after release.
        assert corpse.read(digest) is None

    def test_live_peer_intent_is_joined_not_stolen(self, tmp_path):
        """While a peer's intent heartbeats, a second server polls the
        store and answers with the peer's result."""
        store = tmp_path / "s"
        table = benchmark("lion")
        digest = synthesis_key(table, PipelineSpec()).digest
        resolved = open_store(store)
        peer = LeaseTable(resolved.backend, "inflight", ttl=30.0)
        assert peer.claim(digest, "peer-server")
        try:
            with SynthesisServer(
                store=store, poll=0.01, submit_timeout=30.0
            ) as server:
                client = ServiceClient(server.url)
                answer = [None]

                def ask():
                    answer[0] = client.submit(table)

                thread = threading.Thread(target=ask)
                thread.start()
                # The server is now waiting on the peer.  Play the
                # peer's part: compute the result out of band and file
                # it in the shared store.
                time.sleep(0.2)
                assert answer[0] is None
                from repro.pipeline.batch import BatchRunner

                BatchRunner(store=resolved).run([table])
                thread.join(timeout=30)
                assert answer[0] is not None
                assert answer[0]["ok"] is True
                assert answer[0]["source"] in ("peer", "store")
                assert server.stats.synthesized == 0
                assert server.stats.joined == 1
        finally:
            peer.release(digest, "peer-server")
