"""The ``seance serve`` front door: three-tier dedup over HTTP.

Satellite pin (concurrent-client dedup): N clients submitting the same
table at once cost exactly one synthesis — asserted through the
:class:`~repro.pipeline.manager.PassEvent` telemetry each response
carries: exactly one response paid passes, the rest arrive deduped or
warm with ``passes == 0``.
"""

import threading

import pytest

from repro.bench import benchmark
from repro.errors import StoreError
from repro.pipeline.batch import BatchRunner
from repro.pipeline.spec import PipelineSpec
from repro.service import (
    FakeObjectStoreServer,
    QueueWorker,
    ServiceClient,
    SynthesisServer,
)
from repro.store import (
    ResultStore,
    canonical_batch_payload,
    canonical_json,
)

TABLES = ("lion", "traffic", "hazard_demo")


def submit_concurrently(client, table, count, spec=None):
    """``count`` racing submissions of one table; outcomes in order."""
    outcomes = [None] * count
    barrier = threading.Barrier(count)

    def hit(slot):
        barrier.wait()
        outcomes[slot] = client.submit(table, spec=spec)

    threads = [
        threading.Thread(target=hit, args=(slot,))
        for slot in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


class TestLocalMode:
    def test_concurrent_identical_submissions_cost_one_synthesis(
        self, tmp_path
    ):
        with SynthesisServer(store=tmp_path / "store", jobs=4) as server:
            client = ServiceClient(server.url)
            outcomes = submit_concurrently(
                client, benchmark("lion"), count=6
            )
            assert all(o["ok"] and o["result"] for o in outcomes)
            # PassEvent telemetry: exactly one submission paid passes.
            paying = [o for o in outcomes if o["passes"] > 0]
            assert len(paying) == 1
            assert paying[0]["events"]  # the PassEvent stream itself
            assert all(
                o["deduped"] or o["store_hit"]
                for o in outcomes
                if o is not paying[0]
            )
            stats = client.stats()["stats"]
            assert stats["synthesized"] == 1
            assert stats["deduped"] + stats["store_hits"] == 5

    def test_all_responses_carry_identical_results(self, tmp_path):
        with SynthesisServer(store=tmp_path / "store", jobs=4) as server:
            client = ServiceClient(server.url)
            outcomes = submit_concurrently(
                client, benchmark("traffic"), count=4
            )
            results = {
                canonical_json(o["result"]) for o in outcomes
            }
            assert len(results) == 1

    def test_warm_store_short_circuits_to_zero_passes(self, tmp_path):
        store_path = tmp_path / "store"
        with SynthesisServer(store=store_path) as server:
            ServiceClient(server.url).submit(benchmark("lion"))
        # A *new* server over the same store: still warm.
        with SynthesisServer(store=store_path) as server:
            outcome = ServiceClient(server.url).submit(benchmark("lion"))
            assert outcome["store_hit"] is True
            assert outcome["source"] == "store"
            assert outcome["passes"] == 0 and outcome["events"] == []

    def test_response_matches_batch_canonical_stream(self, tmp_path):
        tables = [benchmark(name) for name in TABLES]
        spec = PipelineSpec()
        with SynthesisServer(store=tmp_path / "store") as server:
            client = ServiceClient(server.url)
            outcomes = client.submit_tables(tables, spec=spec)
        direct = BatchRunner(spec=spec, jobs=1).run(tables)
        assert canonical_json(
            ServiceClient.canonical_items(outcomes)
        ) == canonical_json(canonical_batch_payload(direct))


class TestQueueMode:
    def test_misses_fan_to_workers_and_merge_byte_identical(self):
        tables = [benchmark(name) for name in TABLES]
        spec = PipelineSpec()
        with FakeObjectStoreServer() as fake:
            with SynthesisServer(
                store=fake.url, queue_id="svc", poll=0.05
            ) as server:
                worker = threading.Thread(
                    target=QueueWorker(
                        fake.url, "svc", worker_id="w1", poll=0.05
                    ).run,
                    kwargs={
                        "drain": False,
                        "timeout": 30,
                        "max_units": len(tables),
                    },
                )
                worker.start()
                client = ServiceClient(server.url)
                outcomes = client.submit_tables(tables, spec=spec)
                worker.join()
            assert all(o["source"] == "queue" for o in outcomes)
            direct = BatchRunner(spec=spec, jobs=1).run(tables)
            assert canonical_json(
                ServiceClient.canonical_items(outcomes)
            ) == canonical_json(canonical_batch_payload(direct))

    def test_submission_times_out_without_workers(self):
        with FakeObjectStoreServer() as fake:
            with SynthesisServer(
                store=fake.url,
                queue_id="empty",
                poll=0.05,
                submit_timeout=0.3,
            ) as server:
                outcome = ServiceClient(server.url).submit(
                    benchmark("lion")
                )
                assert outcome["ok"] is False
                assert "timed out" in outcome["error"]


class TestWire:
    def test_healthz(self, tmp_path):
        with SynthesisServer(store=tmp_path / "s") as server:
            assert ServiceClient(server.url).health() is True

    def test_health_of_a_dead_server_is_false(self, tmp_path):
        with SynthesisServer(store=tmp_path / "s") as server:
            url = server.url
        assert ServiceClient(url, timeout=0.5).health() is False

    def test_stats_includes_queue_occupancy(self, tmp_path):
        with SynthesisServer(
            store=tmp_path / "s", queue_id="svc"
        ) as server:
            payload = ServiceClient(server.url).stats()
            assert payload["queue"] == {
                "units": 0, "done": 0, "leased": 0, "expired": 0,
            }

    def test_bad_submission_is_a_400(self, tmp_path):
        with SynthesisServer(store=tmp_path / "s") as server:
            client = ServiceClient(server.url)
            with pytest.raises(StoreError) as err:
                client._request("POST", "/submit", {"table": {"bad": 1}})
            assert "400" in str(err.value)

    def test_unknown_route_is_a_404(self, tmp_path):
        with SynthesisServer(store=tmp_path / "s") as server:
            client = ServiceClient(server.url)
            with pytest.raises(StoreError) as err:
                client._request("GET", "/nope")
            assert "404" in str(err.value)

    def test_server_requires_a_store(self):
        with pytest.raises(StoreError):
            SynthesisServer(store=None)

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(StoreError):
            ServiceClient("cache://localhost:1")
