"""Unit tests for query blocks, views, canonical queries, equivalence."""

import pytest

from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import ColumnRef, Comparison, col, lit
from repro.algebra.query import (
    AggregateView,
    CanonicalQuery,
    EquivalenceClasses,
    QueryBlock,
    TableRef,
    rename_block_aliases,
)
from repro.errors import BindError, PlanError


def simple_view_block():
    return QueryBlock(
        relations=(TableRef("emp", "e"),),
        group_by=(col("e.dno"),),
        aggregates=(("asal", AggregateCall("avg", col("e.sal"))),),
        select=(("dno", col("e.dno")), ("asal", col("asal"))),
    )


class TestQueryBlock:
    def test_requires_relations(self):
        with pytest.raises(PlanError):
            QueryBlock(relations=())

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(PlanError):
            QueryBlock(
                relations=(TableRef("emp", "e"), TableRef("dept", "e"))
            )

    def test_having_requires_group_by(self):
        with pytest.raises(PlanError):
            QueryBlock(
                relations=(TableRef("emp", "e"),),
                having=(Comparison(">", col("x"), lit(1)),),
            )

    def test_aggregates_without_group_by_group_on_nothing(self):
        block = QueryBlock(
            relations=(TableRef("emp", "e"),),
            aggregates=(("s", AggregateCall("sum", col("e.sal"))),),
            select=(("s", col("s")),),
        )
        assert block.is_grouped
        assert AggregateView(alias="v", block=block).output_names == ("s",)

    def test_aliases(self):
        block = QueryBlock(
            relations=(TableRef("emp", "e"), TableRef("dept", "d"))
        )
        assert block.aliases == {"e", "d"}

    def test_validate_accepts_legal_grouped_block(self):
        simple_view_block().validate()

    def test_validate_rejects_nongrouped_select(self):
        block = QueryBlock(
            relations=(TableRef("emp", "e"),),
            group_by=(col("e.dno"),),
            aggregates=(("s", AggregateCall("sum", col("e.sal"))),),
            select=(("sal", col("e.sal")),),  # not a grouping column
        )
        with pytest.raises(BindError):
            block.validate()

    def test_validate_rejects_unknown_alias_in_where(self):
        block = QueryBlock(
            relations=(TableRef("emp", "e"),),
            predicates=(Comparison("=", col("zz.x"), lit(1)),),
        )
        with pytest.raises(BindError):
            block.validate()

    def test_validate_rejects_bad_having(self):
        block = QueryBlock(
            relations=(TableRef("emp", "e"),),
            group_by=(col("e.dno"),),
            aggregates=(("s", AggregateCall("sum", col("e.sal"))),),
            having=(Comparison(">", col("e.sal"), lit(1)),),
            select=(("dno", col("e.dno")),),
        )
        with pytest.raises(BindError):
            block.validate()

    def test_aggregate_output_keys(self):
        block = simple_view_block()
        assert block.aggregate_output_keys() == {(None, "asal")}


class TestAggregateView:
    def test_rejects_ungrouped_block(self):
        with pytest.raises(PlanError):
            AggregateView(
                alias="v",
                block=QueryBlock(relations=(TableRef("emp", "e"),)),
            )

    def test_output_names_and_sources(self):
        view = AggregateView(alias="v", block=simple_view_block())
        assert view.output_names == ("dno", "asal")
        assert view.output_source("dno") == col("e.dno")

    def test_unknown_output(self):
        view = AggregateView(alias="v", block=simple_view_block())
        with pytest.raises(BindError):
            view.output_source("zzz")

    def test_aggregated_outputs(self):
        view = AggregateView(alias="v", block=simple_view_block())
        assert view.aggregated_outputs() == {"asal"}


class TestCanonicalQuery:
    def test_needs_some_relation(self):
        with pytest.raises(PlanError):
            CanonicalQuery()

    def test_alias_clash_between_table_and_view(self):
        view = AggregateView(alias="x", block=simple_view_block())
        with pytest.raises(PlanError):
            CanonicalQuery(
                base_tables=(TableRef("emp", "x"),), views=(view,)
            )

    def test_view_lookup(self):
        view = AggregateView(alias="v", block=simple_view_block())
        query = CanonicalQuery(views=(view,))
        assert query.view("v") is view
        with pytest.raises(BindError):
            query.view("w")

    def test_aliases_union(self):
        view = AggregateView(alias="v", block=simple_view_block())
        query = CanonicalQuery(
            base_tables=(TableRef("dept", "d"),), views=(view,)
        )
        assert query.aliases == {"d", "v"}
        assert query.view_aliases == {"v"}


class TestEquivalenceClasses:
    def test_transitive_union(self):
        eq = EquivalenceClasses(
            [
                Comparison("=", col("a.x"), col("b.y")),
                Comparison("=", col("b.y"), col("c.z")),
            ]
        )
        assert eq.equivalent(("a", "x"), ("c", "z"))

    def test_non_equijoins_ignored(self):
        eq = EquivalenceClasses([Comparison("<", col("a.x"), col("b.y"))])
        assert not eq.equivalent(("a", "x"), ("b", "y"))

    def test_representative_in(self):
        eq = EquivalenceClasses([Comparison("=", col("a.x"), col("b.y"))])
        assert eq.representative_in(("a", "x"), frozenset({"b"})) == ("b", "y")
        assert eq.representative_in(("a", "x"), frozenset({"a"})) == ("a", "x")
        assert eq.representative_in(("a", "x"), frozenset({"z"})) is None


class TestRenameBlockAliases:
    def test_renames_everywhere(self):
        block = QueryBlock(
            relations=(TableRef("emp", "e"), TableRef("dept", "d")),
            predicates=(Comparison("=", col("e.dno"), col("d.dno")),),
            group_by=(col("e.dno"),),
            aggregates=(("s", AggregateCall("sum", col("e.sal"))),),
            having=(Comparison(">", col("s"), lit(1)),),
            select=(("dno", col("e.dno")), ("s", col("s"))),
        )
        renamed = rename_block_aliases(block, {"e": "v__e", "d": "v__d"})
        assert renamed.aliases == {"v__e", "v__d"}
        assert renamed.predicates[0].columns() == {
            ("v__e", "dno"),
            ("v__d", "dno"),
        }
        assert renamed.group_by[0].key == ("v__e", "dno")
        assert renamed.aggregates[0][1].columns() == {("v__e", "sal")}
        # select sources follow; unqualified aggregate refs untouched
        assert renamed.select[0][1].key == ("v__e", "dno")
        assert renamed.select[1][1].key == (None, "s")
