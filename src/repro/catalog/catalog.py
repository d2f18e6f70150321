"""The catalog: tables, keys, indexes, statistics, and view definitions."""

from __future__ import annotations

from dataclasses import (
    dataclass,
    field as dataclass_field,
    replace as dataclass_replace,
)
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import CatalogError
from ..storage.index import OrderedIndex
from ..storage.snapshot import DatabaseSnapshot, TableSnapshot
from ..storage.table import HeapTable
from .schema import Column
from ..stats.collect import DEFAULT_CONFIG, TableStats, analyze_table
from ..stats.config import StatsConfig


@dataclass(frozen=True)
class ForeignKey:
    """A declared foreign key: ``table.columns -> ref_table.ref_columns``.

    Used in two places: pull-up omits the referenced table's key from the
    new grouping columns when the join is a foreign-key join into its
    primary key (Section 3), and the cardinality estimator treats FK
    joins as non-expanding on the referencing side.
    """

    table: str
    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]


@dataclass
class TableInfo:
    """Everything the catalog knows about one stored table.

    Statistics staleness mirrors the materialized-view epoch protocol:
    inserts bump ``stats_epoch`` (an O(1) counter, like a matview delta
    log entry) instead of triggering a rescan; column statistics are
    re-collected lazily, and only once the table has grown past the
    config's ``stale_growth_fraction`` since the last ANALYZE. Row and
    page counts are *never* stale — :meth:`stats` refreshes them from
    the heap in O(1) on every call.
    """

    table: HeapTable
    primary_key: Optional[Tuple[str, ...]] = None
    foreign_keys: List[ForeignKey] = dataclass_field(default_factory=list)
    indexes: Dict[str, OrderedIndex] = dataclass_field(default_factory=dict)
    _stats: Optional[TableStats] = None
    _analyzed_rows: int = -1
    stats_epoch: int = 0
    analyze_count: int = 0
    pages_scanned_total: int = 0

    def stats(self, config: StatsConfig = DEFAULT_CONFIG) -> TableStats:
        """Current statistics: exact row/page counts, column statistics
        no staler than the config's growth threshold."""
        if self._needs_analyze(config):
            self.analyze(config)
        stats = self._stats
        assert stats is not None
        current_rows = self.table.num_rows
        current_pages = self.table.num_pages
        if (
            stats.row_count != current_rows
            or stats.page_count != current_pages
        ):
            stats = dataclass_replace(
                stats, row_count=current_rows, page_count=current_pages
            )
            self._stats = stats
        return stats

    def _needs_analyze(self, config: StatsConfig) -> bool:
        if self._stats is None:
            return True
        current = self.table.num_rows
        if current < self._analyzed_rows:
            return True  # rows vanished (truncate/reload); start over
        growth = current - self._analyzed_rows
        return growth > config.stale_growth_fraction * max(
            self._analyzed_rows, 1
        )

    def analyze(self, config: StatsConfig = DEFAULT_CONFIG) -> TableStats:
        """Force one statistics collection pass now."""
        self._stats = analyze_table(self.table, config)
        self._analyzed_rows = self.table.num_rows
        self.analyze_count += 1
        self.pages_scanned_total += self._stats.pages_scanned
        return self._stats

    def invalidate_stats(self) -> None:
        """Drop cached statistics; the next :meth:`stats` re-collects.
        Used when rows changed in place (e.g. a matview refresh rewrote
        the backing table without changing its row count)."""
        self._stats = None
        self._analyzed_rows = -1
        self.stats_epoch += 1


class Catalog:
    """Registry of tables, indexes, keys, statistics, and named views."""

    def __init__(self, stats_config: Optional[StatsConfig] = None) -> None:
        self.stats_config = stats_config or DEFAULT_CONFIG
        self._tables: Dict[str, TableInfo] = {}
        self._views: Dict[str, Any] = {}
        # Monotonic counter bumped by anything that could change what a
        # previously built plan would answer or how it should be costed:
        # DDL, inserts, ANALYZE, matview create/refresh/drop. It has two
        # jobs: snapshots carry it as a version stamp, and a plan stamped
        # with the current value is valid without looking further. Each
        # bump also stamps the relations it names (_stamps) or, naming
        # none, the whole schema (_schema_epoch); changed_since() reads
        # those when the counter has moved past a plan's stamp.
        self.change_epoch: int = 0
        self._stamps: Dict[str, int] = {}
        self._schema_epoch: int = 0
        # Materialized views (records are opaque here, like view
        # definitions; src/repro/views owns their structure). Backing
        # tables are kept in a side map so info()/table()/stats()
        # resolve them for scans and costing without the backing ever
        # appearing in table_names().
        self._matviews: Dict[str, Any] = {}
        self._matview_backings: Dict[str, TableInfo] = {}
        # The last capture_snapshot() result: the next capture reuses
        # every part of it that is still what it would capture.
        self._snapshot: Optional[DatabaseSnapshot] = None

    # ------------------------------------------------------------------
    # Change tracking and snapshots
    # ------------------------------------------------------------------

    def bump_epoch(self, *names: str) -> int:
        """Advance the catalog change epoch (see ``change_epoch``) and
        stamp each named relation with it; with no names, stamp the
        schema, which every plan depends on."""
        self.change_epoch += 1
        epoch = self.change_epoch
        if names:
            for name in names:
                self._stamps[name] = epoch
        else:
            self._schema_epoch = epoch
        return epoch

    def changed_since(self, relations: AbstractSet[str], epoch: int) -> bool:
        """Whether the schema or any of *relations* was stamped after
        *epoch*: a plan valid at *epoch* that reads only *relations* is
        still valid when this is false."""
        if self._schema_epoch > epoch:
            return True
        stamps = self._stamps
        return any(stamps.get(name, 0) > epoch for name in relations)

    def plan_relations(self, tables: AbstractSet[str]) -> FrozenSet[str]:
        """What a plan over the stored *tables* reads, or could have read
        instead: the tables, plus every materialized view over a subset
        of them and its backing table (only such a view can answer the
        query, Cohen & Nutt)."""
        relations = set(tables)
        for view in self._matviews.values():
            if view.deps <= tables:
                relations.add(view.name)
                relations.add(view.backing_name)
        return frozenset(relations)

    def capture_snapshot(self) -> DatabaseSnapshot:
        """Capture a :class:`DatabaseSnapshot` of every table (user
        tables and matview backings) at the current epoch. O(tables):
        no rows are copied, only published list objects are pinned, and
        a table nothing was published to since the previous capture
        keeps its previous :class:`TableSnapshot` (a few identity
        checks; the rule is ``TableSnapshot.capture``'s) — the previous
        ``DatabaseSnapshot`` itself when that holds for every table at
        an unchanged epoch. Callers serialize this against the single
        writer (the Database write lock)."""
        previous = self._snapshot
        old = previous.tables if previous is not None else {}
        unchanged = (
            previous is not None and previous.epoch == self.change_epoch
        )
        tables: Dict[str, TableSnapshot] = {}
        for mapping in (self._tables, self._matview_backings):
            for name, info in mapping.items():
                before = old.get(name)
                captured = tables[name] = TableSnapshot.capture(
                    info.table, info.indexes, before
                )
                if captured is not before:
                    unchanged = False
        if not unchanged or len(tables) != len(old):
            self._snapshot = DatabaseSnapshot(tables, self.change_epoch)
        return self._snapshot

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> HeapTable:
        if name in self._tables or name in self._views:
            raise CatalogError(f"table or view {name!r} already exists")
        table = HeapTable(name, columns)
        pk: Optional[Tuple[str, ...]] = None
        if primary_key:
            for column in primary_key:
                table.column_position(column)  # validates existence
            pk = tuple(primary_key)
        self._tables[name] = TableInfo(table=table, primary_key=pk)
        self.bump_epoch(name)
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        dependents = sorted(
            view_name
            for view_name, view in self._matviews.items()
            if name in view.deps
        )
        if dependents:
            raise CatalogError(
                f"cannot drop table {name!r}: materialized view"
                f"{'s' if len(dependents) > 1 else ''} "
                f"{', '.join(dependents)} depend"
                f"{'' if len(dependents) > 1 else 's'} on it"
            )
        del self._tables[name]
        self.bump_epoch(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> HeapTable:
        return self.info(name).table

    def info(self, name: str) -> TableInfo:
        info = self._tables.get(name)
        if info is None:
            info = self._matview_backings.get(name)
        if info is None:
            raise CatalogError(f"unknown table {name!r}")
        return info

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    # Keys and indexes
    # ------------------------------------------------------------------

    def primary_key(self, name: str) -> Optional[Tuple[str, ...]]:
        return self.info(name).primary_key

    def add_foreign_key(
        self,
        table: str,
        columns: Sequence[str],
        ref_table: str,
        ref_columns: Sequence[str],
    ) -> ForeignKey:
        info = self.info(table)
        ref_info = self.info(ref_table)
        for column in columns:
            info.table.column_position(column)
        for column in ref_columns:
            ref_info.table.column_position(column)
        if len(columns) != len(ref_columns):
            raise CatalogError("foreign key column lists differ in length")
        fk = ForeignKey(table, tuple(columns), ref_table, tuple(ref_columns))
        info.foreign_keys.append(fk)
        self.bump_epoch(table, ref_table)
        return fk

    def foreign_keys(self, table: str) -> List[ForeignKey]:
        return list(self.info(table).foreign_keys)

    def create_index(
        self, index_name: str, table: str, columns: Sequence[str]
    ) -> OrderedIndex:
        info = self.info(table)
        if index_name in info.indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        index = OrderedIndex(index_name, info.table, columns)
        info.indexes[index_name] = index
        self.bump_epoch(table)
        return index

    def rebuild_indexes(self, table: str) -> None:
        """Refresh all indexes of *table* after bulk loading."""
        for index in self.info(table).indexes.values():
            index.build()

    def drop_index(self, index_name: str) -> None:
        for table, info in self._tables.items():
            if index_name in info.indexes:
                del info.indexes[index_name]
                self.bump_epoch(table)
                return
        raise CatalogError(f"unknown index {index_name!r}")

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self, name: str) -> TableStats:
        return self.info(name).stats(self.stats_config)

    def analyze(self, name: Optional[str] = None) -> List[str]:
        """Force statistics collection now (the ANALYZE statement).

        With a name, analyzes that table (a materialized view name
        resolves to its backing table); without one, every user table.
        Returns the analyzed names.
        """
        if name is not None:
            if name in self._matviews:
                backing = self._matviews[name].backing_name
                self.info(backing).analyze(self.stats_config)
                self.bump_epoch(name, backing)
            else:
                self.info(name).analyze(self.stats_config)
                self.bump_epoch(name)
            return [name]
        names = self.table_names()
        for table_name in names:
            self.info(table_name).analyze(self.stats_config)
        self.bump_epoch()
        return names

    # ------------------------------------------------------------------
    # Views (definitions are opaque to the catalog; the SQL binder owns
    # their interpretation)
    # ------------------------------------------------------------------

    def register_view(self, name: str, definition: Any) -> None:
        if name in self._tables or name in self._views:
            raise CatalogError(f"table or view {name!r} already exists")
        self._views[name] = definition
        self.bump_epoch()

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise CatalogError(f"unknown view {name!r}")
        del self._views[name]
        self.bump_epoch()

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> Any:
        if name not in self._views:
            raise CatalogError(f"unknown view {name!r}")
        return self._views[name]

    def view_names(self) -> List[str]:
        return sorted(self._views)

    # ------------------------------------------------------------------
    # Materialized views (records built by src/repro/views; the catalog
    # stores them, routes insert notifications, and serves the backing
    # tables through info()/table()/stats())
    # ------------------------------------------------------------------

    def register_materialized_view(
        self, view: Any, backing_info: TableInfo
    ) -> None:
        """Register *view* and its definition as a logical view of the
        same name. Queries over its base tables gain a rewrite
        candidate, so those are stamped with it."""
        name = view.name
        if name in self._matviews or name in self._tables or (
            name in self._views
        ):
            raise CatalogError(f"table or view {name!r} already exists")
        self._views[name] = view.definition
        self._matviews[name] = view
        self._matview_backings[view.backing_name] = backing_info
        self.bump_epoch(name, view.backing_name, *view.deps)

    def drop_materialized_view(self, name: str) -> None:
        view = self._matviews.pop(name, None)
        if view is None:
            raise CatalogError(f"unknown materialized view {name!r}")
        self._views.pop(name, None)
        self._matview_backings.pop(view.backing_name, None)
        self.bump_epoch(name, view.backing_name, *view.deps)

    def has_materialized_view(self, name: str) -> bool:
        return name in self._matviews

    def materialized_view(self, name: str) -> Any:
        view = self._matviews.get(name)
        if view is None:
            raise CatalogError(f"unknown materialized view {name!r}")
        return view

    def materialized_views(self) -> List[Any]:
        return [self._matviews[name] for name in sorted(self._matviews)]

    def materialized_view_names(self) -> List[str]:
        return sorted(self._matviews)

    def record_insert(
        self, table: str, rows: Sequence[Tuple[Any, ...]]
    ) -> None:
        """Tell every dependent materialized view about new base rows
        (stale flag + delta log); called by the INSERT path. Also bumps
        the table's statistics epoch — an O(1) mark, never a rescan.
        Stamps the table and every view it stales, with its backing."""
        info = self._tables.get(table)
        if info is not None:
            info.stats_epoch += 1
        stale: List[str] = []
        for view in self._matviews.values():
            view.notify_insert(table, rows)
            if table in view.deps:
                stale += (view.name, view.backing_name)
        self.bump_epoch(table, *stale)
