"""Unit tests for schemas, statistics, and the catalog."""

import pytest

from repro.catalog import Catalog, Column, Field, RowSchema, analyze_table
from repro.catalog.schema import RID_COLUMN, table_row_schema
from repro.datatypes import DataType
from repro.errors import CatalogError, SchemaError
from repro.storage import HeapTable


class TestRowSchema:
    def schema(self):
        return RowSchema(
            [
                Field("e", "dno", DataType.INT),
                Field("e", "sal", DataType.FLOAT),
                Field("d", "dno", DataType.INT),
                Field(None, "asal", DataType.FLOAT),
            ]
        )

    def test_width_sums_dtype_widths(self):
        assert self.schema().width == 4 + 8 + 4 + 8

    def test_qualified_resolution(self):
        assert self.schema().index_of("d", "dno") == 2

    def test_unqualified_unique(self):
        assert self.schema().index_of(None, "sal") == 1

    def test_unqualified_ambiguous(self):
        with pytest.raises(SchemaError):
            self.schema().index_of(None, "dno")

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            self.schema().index_of("e", "nope")

    def test_computed_field_resolution(self):
        assert self.schema().index_of(None, "asal") == 3

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            RowSchema(
                [
                    Field("e", "x", DataType.INT),
                    Field("e", "x", DataType.INT),
                ]
            )

    def test_concat_preserves_order(self):
        left = RowSchema([Field("a", "x", DataType.INT)])
        right = RowSchema([Field("b", "y", DataType.INT)])
        combined = left.concat(right)
        assert [f.key for f in combined] == [("a", "x"), ("b", "y")]

    def test_project_reorders(self):
        projected = self.schema().project([("d", "dno"), ("e", "sal")])
        assert [f.key for f in projected] == [("d", "dno"), ("e", "sal")]

    def test_aliases_excludes_computed(self):
        assert self.schema().aliases() == {"e", "d"}

    def test_table_row_schema_with_rid(self):
        schema = table_row_schema(
            "t", [Column("a", DataType.INT)], include_rid=True
        )
        assert schema.has("t", RID_COLUMN)


class TestStatistics:
    def test_analyze_counts(self):
        table = HeapTable(
            "t", [Column("k", DataType.INT), Column("g", DataType.INT)]
        )
        for i in range(100):
            table.insert((i, i % 4))
        stats = analyze_table(table)
        assert stats.row_count == 100
        assert stats.page_count == table.num_pages
        assert stats.column("k").n_distinct == 100
        assert stats.column("g").n_distinct == 4
        assert stats.column("g").min_value == 0
        assert stats.column("g").max_value == 3

    def test_analyze_empty_table(self):
        table = HeapTable("t", [Column("k", DataType.INT)])
        stats = analyze_table(table)
        assert stats.row_count == 0
        assert stats.column("k").n_distinct == 0

    def test_spread_for_numeric(self):
        table = HeapTable("t", [Column("k", DataType.INT)])
        table.insert_many([(5,), (15,)])
        stats = analyze_table(table)
        assert stats.column("k").spread == 10.0

    def test_spread_none_for_strings(self):
        table = HeapTable("t", [Column("s", DataType.STR)])
        table.insert_many([("a",), ("b",)])
        assert analyze_table(table).column("s").spread is None


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a", DataType.INT)])
        assert catalog.has_table("t")
        assert catalog.table("t").name == "t"

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a", DataType.INT)])
        with pytest.raises(CatalogError):
            catalog.create_table("t", [Column("a", DataType.INT)])

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("missing")

    def test_primary_key_validated(self):
        catalog = Catalog()
        with pytest.raises(SchemaError):
            catalog.create_table(
                "t", [Column("a", DataType.INT)], primary_key=["nope"]
            )

    def test_primary_key_stored(self):
        catalog = Catalog()
        catalog.create_table(
            "t", [Column("a", DataType.INT)], primary_key=["a"]
        )
        assert catalog.primary_key("t") == ("a",)

    def test_foreign_key_round_trip(self):
        catalog = Catalog()
        catalog.create_table(
            "p", [Column("id", DataType.INT)], primary_key=["id"]
        )
        catalog.create_table("c", [Column("pid", DataType.INT)])
        fk = catalog.add_foreign_key("c", ["pid"], "p", ["id"])
        assert catalog.foreign_keys("c") == [fk]

    def test_foreign_key_length_mismatch(self):
        catalog = Catalog()
        catalog.create_table("p", [Column("id", DataType.INT)])
        catalog.create_table(
            "c", [Column("x", DataType.INT), Column("y", DataType.INT)]
        )
        with pytest.raises(CatalogError):
            catalog.add_foreign_key("c", ["x", "y"], "p", ["id"])

    def test_stats_refresh_after_insert(self):
        catalog = Catalog()
        table = catalog.create_table("t", [Column("a", DataType.INT)])
        assert catalog.stats("t").row_count == 0
        table.insert((1,))
        assert catalog.stats("t").row_count == 1

    def test_duplicate_index_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a", DataType.INT)])
        catalog.create_index("i", "t", ["a"])
        with pytest.raises(CatalogError):
            catalog.create_index("i", "t", ["a"])

    def test_views_registry(self):
        catalog = Catalog()
        catalog.register_view("v", object())
        assert catalog.has_view("v")
        assert catalog.view_names() == ["v"]
        catalog.drop_view("v")
        assert not catalog.has_view("v")

    def test_view_table_name_clash(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a", DataType.INT)])
        with pytest.raises(CatalogError):
            catalog.register_view("t", object())

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a", DataType.INT)])
        catalog.drop_table("t")
        assert not catalog.has_table("t")
