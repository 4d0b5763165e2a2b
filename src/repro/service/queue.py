"""A durable work-stealing queue of unit digests over the store backend.

PR 5's ``digest % N`` shards balance *counts*; a heterogeneous fleet
needs to balance *cost* and survive crashes.  The queue replaces static
partitions with blobs in the same store the results land in — no second
service, and the queue inherits the backend's durability:

``queue/<qid>/unit/<digest>.json``
    One self-describing work unit: the :class:`~repro.store.StoreKey`
    it computes, the serialised flow table and pipeline spec needed to
    compute it anywhere, the campaign cell parameters (validation
    units), and an LPT *weight* — archived seconds from the telemetry
    blobs workers leave behind, so heavy tables are claimed first and
    the fleet finishes together.

``queue/<qid>/lease/<digest>.json``
    The claim: worker id + expiry, created with the backend's
    conditional put (``O_EXCL`` locally, ``If-None-Match: *`` on the
    object store, ``ADD`` on the cache protocol), renewed by heartbeat.
    A crashed worker stops heartbeating; once the lease lapses any
    idle worker *steals* it (delete + conditional put + read-back
    verification).

``queue/<qid>/done/<digest>.json``
    A cheap completion marker for status scans.

``telemetry/<table-digest>.json``
    Archived per-stage seconds (synthesis total + per-pass breakdown,
    mean validation cell seconds), written by workers after cold
    computation and read back as LPT weights by the next publisher.

**Correctness never rests on the leases.**  The steal path is racy by
construction (two stealers can both believe they won for a moment, and
clocks across a fleet skew); what makes that safe is that execution is
idempotent — the unit's *result* lives in the content-addressed store,
two workers computing one digest write byte-identical envelopes, and
``mark_done`` is keyed by content.  A lost lease costs duplicated work,
never a wrong or torn result.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from ..errors import StoreError
from ..store.store import ResultStore, open_store
from .leases import LeaseTable


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _decode(blob: bytes | None) -> dict | None:
    if blob is None:
        return None
    try:
        payload = json.loads(blob.decode())
    except (ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


@dataclass(frozen=True)
class QueueStats:
    """One status scan: published / completed / lease occupancy."""

    units: int
    done: int
    leased: int
    expired: int

    @property
    def remaining(self) -> int:
        return self.units - self.done

    def describe(self) -> str:
        return (
            f"{self.units} unit(s): {self.done} done, "
            f"{self.remaining} remaining "
            f"({self.leased} leased, {self.expired} lease(s) lapsed)"
        )


class WorkQueue:
    """The blob-backed queue (see the module docstring).

    ``store`` is the :class:`~repro.store.ResultStore` (or location)
    the results land in; queue blobs share its backend.  ``lease_ttl``
    is the default claim lifetime — workers heartbeat at a fraction of
    it, so it bounds how long a crashed worker's units stay stuck.
    """

    def __init__(
        self,
        store: ResultStore | str,
        queue_id: str = "default",
        lease_ttl: float = 30.0,
    ):
        resolved = open_store(store)
        if resolved is None:
            raise StoreError("a work queue needs a store location")
        self.store = resolved
        self.backend = resolved.backend
        if "/" in queue_id or not queue_id:
            raise StoreError(f"invalid queue id {queue_id!r}")
        self.queue_id = queue_id
        self.lease_ttl = float(lease_ttl)
        #: Unit claims, shared mechanics with the front door's
        #: ``inflight/`` markers (see :mod:`repro.service.leases`).
        self.leases = LeaseTable(
            self.backend, f"queue/{queue_id}/lease", ttl=self.lease_ttl
        )

    # -- blob names ----------------------------------------------------
    def _unit_name(self, digest: str) -> str:
        return f"queue/{self.queue_id}/unit/{digest}.json"

    def _lease_name(self, digest: str) -> str:
        return f"queue/{self.queue_id}/lease/{digest}.json"

    def _done_name(self, digest: str) -> str:
        return f"queue/{self.queue_id}/done/{digest}.json"

    @staticmethod
    def _telemetry_name(table_digest: str) -> str:
        return f"telemetry/{table_digest}.json"

    # -- publishing ----------------------------------------------------
    def telemetry_weight(self, table_digest: str, kind: str) -> float:
        """The LPT weight archived telemetry predicts for one unit.

        Synthesis units weigh their recorded per-stage total; validation
        units the mean cell seconds.  1.0 when nothing is archived yet —
        a cold queue degrades to count balancing, exactly PR 5's
        behaviour.
        """
        record = _decode(self.backend.read(self._telemetry_name(table_digest)))
        if record is None:
            return 1.0
        field = (
            "synthesis_seconds" if kind == "synthesis" else "cell_seconds"
        )
        try:
            weight = float(record.get(field, 0.0))
        except (TypeError, ValueError):
            return 1.0
        return weight if weight > 0 else 1.0

    def record_telemetry(
        self,
        table_digest: str,
        *,
        synthesis_seconds: float | None = None,
        passes: dict[str, float] | None = None,
        cell_seconds: float | None = None,
    ) -> None:
        """Merge one worker's observed seconds into the archive.

        Read-modify-write without a lock: racing workers overwrite each
        other with equally valid observations — weights are advisory.
        """
        name = self._telemetry_name(table_digest)
        record = _decode(self.backend.read(name)) or {}
        if synthesis_seconds is not None:
            record["synthesis_seconds"] = round(synthesis_seconds, 6)
        if passes is not None:
            record["passes"] = {
                key: round(value, 6) for key, value in passes.items()
            }
        if cell_seconds is not None:
            record["cell_seconds"] = round(cell_seconds, 6)
        self.backend.write(name, _encode(record))

    def publish(self, units: list[dict]) -> int:
        """Publish self-describing unit payloads; returns how many were
        new.  Publication is conditional on the digest, so republishing
        a plan (a restarted server, overlapping campaigns) is free, and
        units whose result already sits in the store are skipped and
        marked done outright."""
        published = 0
        for unit in units:
            digest = unit["digest"]
            if self.backend.read(self._done_name(digest)) is not None:
                continue
            if self._result_present(unit):
                self.mark_done(digest, worker="publisher")
                continue
            if self.backend.write_if_absent(
                self._unit_name(digest), _encode(unit)
            ):
                published += 1
        return published

    def publish_batch(
        self, tables, spec=None, options_list=None
    ) -> int:
        """Publish one synthesis unit per (table, options) pair.

        Mirrors :class:`~repro.store.ShardedBatch`'s unit enumeration —
        same keys, same labels — so a queue drain and a shard run are
        interchangeable ways of filling the store, and ``merge`` works
        on either.
        """
        from ..core.serialize import table_to_dict
        from ..store.keys import table_digest
        from ..store.sharding import ShardedBatch

        sharded = ShardedBatch(tables, spec=spec, options_list=options_list)
        units = []
        for unit in sharded.plan(1).units:
            table, options = sharded.pairs[unit.index]
            unit_spec = sharded._unit_spec(options)
            units.append(
                {
                    "digest": unit.key.digest,
                    "kind": "synthesis",
                    "label": unit.label,
                    "key": unit.key.to_dict(),
                    "table": table_to_dict(table),
                    "spec": unit_spec.to_dict(),
                    "weight": self.telemetry_weight(
                        table_digest(table), "synthesis"
                    ),
                }
            )
        return self.publish(units)

    def publish_campaign(self, tables, campaign) -> int:
        """Publish one validation unit per campaign cell (plus the
        synthesis each table needs, resolved worker-side through the
        store), keyed by :meth:`ValidationCampaign.cell_key
        <repro.sim.campaign.ValidationCampaign.cell_key>` via the
        shard plan."""
        from ..core.serialize import table_to_dict
        from ..store.keys import table_digest
        from ..store.sharding import ShardedCampaign

        sharded = ShardedCampaign(tables, campaign)
        units = []
        for unit in sharded.plan(1).units:
            table = tables[unit.table_index]
            model, seed = unit.cell
            units.append(
                {
                    "digest": unit.key.digest,
                    "kind": "validation",
                    "label": unit.label,
                    "key": unit.key.to_dict(),
                    "table": table_to_dict(table),
                    "spec": sharded.spec.to_dict(),
                    "cell": {
                        "model": model,
                        "seed": seed,
                        "steps": campaign.steps,
                        "engine": campaign.engine,
                        "use_fsv": campaign.use_fsv,
                    },
                    "weight": self.telemetry_weight(
                        table_digest(table), "validation"
                    ),
                }
            )
        return self.publish(units)

    def _result_present(self, unit: dict) -> bool:
        key = unit.get("key", {})
        kind, digest = key.get("kind"), unit.get("digest")
        if not kind or not digest:
            return False
        return self.backend.read(f"{kind}/{digest}.json") is not None

    # -- scanning ------------------------------------------------------
    def pending(self) -> list[tuple[str, dict]]:
        """Undone units, heaviest first (LPT), digest as tie-break —
        every worker scans the same deterministic claim order."""
        done = {
            self._digest_of(name)
            for name in self.backend.names(f"queue/{self.queue_id}/done/")
        }
        units = []
        for name in self.backend.names(f"queue/{self.queue_id}/unit/"):
            digest = self._digest_of(name)
            if digest in done:
                continue
            payload = _decode(self.backend.read(name))
            if payload is None:
                continue
            units.append((digest, payload))
        units.sort(
            key=lambda pair: (-float(pair[1].get("weight", 1.0)), pair[0])
        )
        return units

    @staticmethod
    def _digest_of(name: str) -> str:
        stem = name.rsplit("/", 1)[-1]
        return stem[:-len(".json")] if stem.endswith(".json") else stem

    def stats(self) -> QueueStats:
        prefix = f"queue/{self.queue_id}/"
        units = done = leased = expired = 0
        now = time.time()
        for name in self.backend.names(prefix):
            rest = name[len(prefix):]
            if rest.startswith("unit/"):
                units += 1
            elif rest.startswith("done/"):
                done += 1
            elif rest.startswith("lease/"):
                lease = _decode(self.backend.read(name))
                if lease is None or now >= float(lease.get("expires", 0)):
                    expired += 1
                else:
                    leased += 1
        return QueueStats(
            units=units, done=done, leased=leased, expired=expired
        )

    # -- leases (delegated to the shared LeaseTable) -------------------
    def read_lease(self, digest: str) -> dict | None:
        return self.leases.read(digest)

    def claim(
        self, digest: str, worker: str, ttl: float | None = None
    ) -> bool:
        """Try to lease a unit; True when this worker now holds it
        (fresh conditional put, or a steal of a lapsed lease — see
        :meth:`repro.service.leases.LeaseTable.claim`)."""
        return self.leases.claim(digest, worker, ttl=ttl)

    def heartbeat(
        self, digest: str, worker: str, ttl: float | None = None
    ) -> bool:
        """Extend a held lease; False when it is no longer ours (stolen
        after a stall) — the worker should abandon the unit."""
        return self.leases.heartbeat(digest, worker, ttl=ttl)

    def release(self, digest: str, worker: str) -> None:
        self.leases.release(digest, worker)

    def lease_report(self) -> list[dict]:
        """Per-lease status rows (digest, worker, age, beats, steals,
        lapsed) — the material of ``seance queue status --watch``."""
        rows = self.leases.report()
        for row in rows:
            row["digest"] = row.pop("key")
        return rows

    def mark_done(self, digest: str, worker: str) -> None:
        self.backend.write(
            self._done_name(digest),
            _encode({"worker": worker, "at": round(time.time(), 6)}),
        )

    def is_done(self, digest: str) -> bool:
        return self.backend.read(self._done_name(digest)) is not None
