"""Deterministic work-splitting over the result store.

The distributed pattern of the roadmap's DAC/DALC related work:
partition independent work units by **content key**, execute each
partition anywhere, merge the deterministic streams.  A work unit is
one synthesis run (batch mode) or one validation-campaign cell
(campaign mode); its :class:`~repro.store.keys.StoreKey` digest decides
its shard —

    shard(unit) = int(digest, 16) % shards

— so the assignment depends only on *what* is computed: re-planning on
any machine, in any process, with the inputs in the same order, yields
the same partition.  Shards overlap nothing, cover everything, and any
``shards`` >= 1 is legal (``shards=1`` degenerates to a single-process
run; ``shards`` > units leaves some shards empty).

:class:`ShardedBatch` and :class:`ShardedCampaign` bind a planned unit
list to execution (``run_shard`` — compute the units of one shard into
a store, skipping verified hits) and reassembly (``merge`` — read every
unit back and rebuild the stream **byte-identically** to the
single-process :class:`~repro.pipeline.batch.BatchRunner` /
:class:`~repro.sim.campaign.ValidationCampaign` output, up to the
canonical projection of :mod:`repro.store.canonical`).  Neither
executes work itself: batch units run through a store-backed
``BatchRunner``, and campaign cells through single-seed
``ValidationCampaign`` sub-campaigns — the one place a cell is
simulated, written back and (when dirty) archived as a VCD, and the
one place its key is derived (``ValidationCampaign.cell_key``).  A
merge over an incomplete store raises
:class:`~repro.errors.StoreError` naming each missing unit and the
shard that owns it.

CLI: ``seance shard plan | run --shard i/N | merge`` (see
:mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StoreError
from ..flowtable.table import FlowTable
from ..pipeline.spec import PipelineSpec
from .keys import StoreKey, synthesis_key
from .store import ResultStore


def shard_of(key: StoreKey, shards: int) -> int:
    """The shard a key's work lands on (content-hash partition)."""
    if shards < 1:
        raise StoreError(f"shard count must be >= 1, got {shards}")
    return int(key.digest, 16) % shards


@dataclass(frozen=True)
class WorkUnit:
    """One shardable unit: its stream position, key, and a label.

    ``cell`` carries a campaign unit's ``(model, seed)``; batch units
    leave it None.
    """

    index: int
    key: StoreKey
    label: str
    table_index: int
    cell: tuple[str, int] | None = None


@dataclass(frozen=True)
class ShardPlan:
    """A unit list partitioned into ``shards`` by content hash."""

    shards: int
    units: tuple[WorkUnit, ...]

    def shard_units(self, shard: int) -> tuple[WorkUnit, ...]:
        if not 0 <= shard < self.shards:
            raise StoreError(
                f"shard index {shard} out of range 0..{self.shards - 1}"
            )
        return tuple(
            unit
            for unit in self.units
            if shard_of(unit.key, self.shards) == shard
        )

    def counts(self) -> list[int]:
        counts = [0] * self.shards
        for unit in self.units:
            counts[shard_of(unit.key, self.shards)] += 1
        return counts

    def describe(self) -> str:
        lines = [
            f"{len(self.units)} work units over {self.shards} shard(s):"
        ]
        for shard, count in enumerate(self.counts()):
            lines.append(f"  shard {shard}/{self.shards}: {count} unit(s)")
        return "\n".join(lines)


def _missing_error(
    what: str, missing: list[WorkUnit], shards: int
) -> StoreError:
    lines = [
        f"cannot merge {what}: {len(missing)} work unit(s) missing "
        f"from the store"
    ]
    for unit in missing[:20]:
        lines.append(
            f"  {unit.label} (shard "
            f"{shard_of(unit.key, shards)}/{shards})"
        )
    if len(missing) > 20:
        lines.append(f"  ... and {len(missing) - 20} more")
    lines.append(
        "run the named shard(s) with `seance shard run` and merge again"
    )
    return StoreError("\n".join(lines))


# ----------------------------------------------------------------------
# Batch matrices
# ----------------------------------------------------------------------
class ShardedBatch:
    """A batch matrix (tables × option sets) split by content hash.

    The unit stream is exactly
    :meth:`repro.pipeline.batch.BatchRunner.run_matrix` order —
    option-major, tables in input order — and collapses to plain
    ``run`` order when ``options_list`` is omitted.
    """

    def __init__(
        self,
        tables: list[FlowTable],
        spec: PipelineSpec | None = None,
        options_list=None,
    ):
        self.tables = list(tables)
        self.spec = spec if spec is not None else PipelineSpec()
        self.options_list = (
            list(options_list)
            if options_list is not None
            else [self.spec.options]
        )
        self.pairs = [
            (table, options)
            for options in self.options_list
            for table in self.tables
        ]

    # ------------------------------------------------------------------
    def _unit_spec(self, options) -> PipelineSpec:
        if options == self.spec.options:
            return self.spec
        return self.spec.with_options(options)

    def plan(self, shards: int) -> ShardPlan:
        units = []
        many = len(self.options_list) > 1
        for index, (table, options) in enumerate(self.pairs):
            label = table.name
            if many:
                label = (
                    f"{table.name}"
                    f"[options {index // len(self.tables)}]"
                )
            units.append(
                WorkUnit(
                    index=index,
                    key=synthesis_key(table, self._unit_spec(options)),
                    label=label,
                    table_index=index % len(self.tables),
                )
            )
        if shards < 1:
            raise StoreError(f"shard count must be >= 1, got {shards}")
        return ShardPlan(shards=shards, units=tuple(units))

    # ------------------------------------------------------------------
    def run_shard(
        self,
        shard: int,
        shards: int,
        store: ResultStore,
        jobs: int = 1,
    ) -> list:
        """Execute (or verify) this shard's units; returns its items.

        Routes through a store-backed
        :class:`~repro.pipeline.batch.BatchRunner`, so units already in
        the store are verified hits (``item.store_hit``), fresh units
        are synthesised and written, and a corrupt blob is silently
        recomputed.
        """
        from ..pipeline.batch import BatchRunner

        plan = self.plan(shards)
        mine = plan.shard_units(shard)
        pairs = [self.pairs[unit.index] for unit in mine]
        runner = BatchRunner(spec=self.spec, jobs=jobs, store=store)
        return runner.run_pairs(pairs)

    def merge(self, store: ResultStore, shards: int = 1) -> list:
        """Reassemble the full ordered :class:`BatchItem` stream.

        ``shards`` only labels the missing-unit error (which shard to
        re-run); the stream itself is shard-count independent.
        """
        from ..pipeline.batch import BatchItem

        items = []
        missing = []
        plan = self.plan(shards)
        for unit in plan.units:
            table, options = self.pairs[unit.index]
            stored = store.get_synthesis(table, self._unit_spec(options))
            if stored is None:
                missing.append(unit)
                continue
            items.append(BatchItem.from_stored(unit.index, table.name, stored))
        if missing:
            raise _missing_error("batch", missing, plan.shards)
        return items


# ----------------------------------------------------------------------
# Validation campaigns
# ----------------------------------------------------------------------
class ShardedCampaign:
    """A campaign cell grid split by content hash.

    Cells are planned on the *source* tables (their keys need no
    synthesis), in the campaign's deterministic table-major / model /
    seed order.  Each shard synthesises just the tables its cells need
    — through the store, so a table whose cells span shards is computed
    once and verified everywhere else — and a synthesis failure is
    recorded in the store like any other deterministic outcome, so the
    merger can rebuild the campaign's ``errors`` list without
    re-running anything.
    """

    def __init__(self, tables: list[FlowTable], campaign):
        self.tables = list(tables)
        self.campaign = campaign
        self.spec = (
            campaign.spec if campaign.spec is not None else PipelineSpec()
        )

    # ------------------------------------------------------------------
    def plan(self, shards: int) -> ShardPlan:
        if shards < 1:
            raise StoreError(f"shard count must be >= 1, got {shards}")
        campaign = self.campaign
        units = []
        index = 0
        for table_index, table in enumerate(self.tables):
            for model in campaign.delay_models:
                for seed in campaign.seeds:
                    units.append(
                        WorkUnit(
                            index=index,
                            key=campaign.cell_key(
                                table, model, seed, campaign.use_fsv
                            ),
                            label=f"{table.name}/{model}/seed{seed}",
                            table_index=table_index,
                            cell=(model, seed),
                        )
                    )
                    index += 1
        return ShardPlan(shards=shards, units=tuple(units))

    # ------------------------------------------------------------------
    def run_shard(
        self,
        shard: int,
        shards: int,
        store: ResultStore,
        jobs: int = 1,
    ) -> dict:
        """Synthesise and simulate this shard's cells into the store.

        Returns run statistics: planned/executed/hit cell counts and
        the tables whose synthesis failed (their cells are unrunnable
        and intentionally absent from the store — the merger reads the
        recorded synthesis error instead).
        """
        from ..netlist.fantom import build_fantom
        from ..pipeline.batch import BatchRunner
        from ..sim.campaign import ValidationCampaign

        campaign = self.campaign
        plan = self.plan(shards)
        mine = plan.shard_units(shard)
        needed = sorted({unit.table_index for unit in mine})

        runner = BatchRunner(spec=self.spec, jobs=jobs, store=store)
        machines: dict[int, object] = {}
        failed: list[tuple[str, str]] = []
        for table_index, item in zip(
            needed, runner.run([self.tables[i] for i in needed])
        ):
            if item.ok:
                machines[table_index] = build_fantom(
                    item.result, use_fsv=campaign.use_fsv
                )
            else:
                failed.append((item.name, item.error))

        # One single-seed sub-campaign per (table, seed): the walk is
        # generated once and replayed under that group's models, which
        # arrive in campaign order (the plan enumerates models before
        # seeds).
        groups: dict[tuple[int, int], list[str]] = {}
        skipped = 0
        for unit in mine:
            if unit.table_index not in machines:
                skipped += 1
                continue
            model, seed = unit.cell
            groups.setdefault((unit.table_index, seed), []).append(model)
        cells = []
        for (table_index, seed), models in groups.items():
            cells += ValidationCampaign(
                sweep=1,
                steps=campaign.steps,
                delay_models=tuple(models),
                base_seed=seed,
                use_fsv=campaign.use_fsv,
                spec=campaign.spec,
                engine=campaign.engine,
                store=store,
            ).run_machines([machines[table_index]]).cells
        hits = sum(cell.store_hit for cell in cells)
        return {
            "shard": shard,
            "shards": shards,
            "planned": len(mine),
            "executed": len(cells) - hits,
            "store_hits": hits,
            "skipped": skipped,
            "synthesis_failures": failed,
        }

    def merge(self, store: ResultStore, shards: int = 1):
        """Reassemble the full deterministic :class:`CampaignResult`.

        ``shards`` only labels the missing-unit error (which shard to
        re-run); the stream itself is shard-count independent.
        """
        from ..sim.campaign import CampaignCell, CampaignResult

        campaign = self.campaign
        result = CampaignResult(
            models=campaign.delay_models,
            sweep=campaign.sweep,
            steps=campaign.steps,
        )
        missing: list[WorkUnit] = []
        plan = self.plan(shards)
        by_table: dict[int, list[WorkUnit]] = {}
        for unit in plan.units:
            by_table.setdefault(unit.table_index, []).append(unit)
        for table_index, table in enumerate(self.tables):
            stored = store.get_synthesis(table, self.spec)
            if stored is None:
                missing.extend(by_table[table_index])
                continue
            if not stored.ok:
                result.errors.append((table.name, stored.error))
                continue
            name = stored.result.table.name
            for unit in by_table[table_index]:
                summary = store.get_validation(unit.key)
                if summary is None:
                    missing.append(unit)
                    continue
                model, seed = unit.cell
                result.cells.append(
                    CampaignCell.replayed(name, model, seed, summary)
                )
        if missing:
            raise _missing_error("campaign", missing, plan.shards)
        return result
