"""Unit tests for plan nodes, schema propagation, and legality checks."""

import pytest

from repro.algebra.aggregates import AggregateCall
from repro.algebra.expressions import Arith, Comparison, Parameter, col, lit
from repro.algebra.legality import check_plan
from repro.algebra.plan import (
    FilterNode,
    GroupByNode,
    JoinNode,
    ProjectNode,
    RenameNode,
    ScanNode,
    SortNode,
    explain,
    plan_nodes,
)
from repro.catalog import Field
from repro.catalog.schema import RID_COLUMN
from repro.datatypes import DataType
from repro.errors import PlanError


def emp_scan(alias="e", filters=()):
    return ScanNode(
        "emp",
        alias,
        [
            Field(alias, "eno", DataType.INT),
            Field(alias, "dno", DataType.INT),
            Field(alias, "sal", DataType.FLOAT),
        ],
        filters=filters,
    )


def dept_scan(alias="d"):
    return ScanNode(
        "dept",
        alias,
        [
            Field(alias, "dno", DataType.INT),
            Field(alias, "budget", DataType.FLOAT),
        ],
    )


class TestScanNode:
    def test_schema(self):
        scan = emp_scan()
        assert [f.key for f in scan.schema] == [
            ("e", "eno"),
            ("e", "dno"),
            ("e", "sal"),
        ]

    def test_include_rid_adds_field(self):
        scan = ScanNode(
            "emp", "e", [Field("e", "eno", DataType.INT)], include_rid=True
        )
        assert scan.schema.has("e", RID_COLUMN)

    def test_describe_mentions_access_path(self):
        assert "heap" in emp_scan().describe()


class TestJoinNode:
    def test_schema_concat_and_projection(self):
        join = JoinNode(
            emp_scan(),
            dept_scan(),
            method="hj",
            equi_keys=[(("e", "dno"), ("d", "dno"))],
            projection=[("e", "sal"), ("d", "budget")],
        )
        assert [f.key for f in join.schema] == [
            ("e", "sal"),
            ("d", "budget"),
        ]

    def test_default_projection_keeps_all(self):
        join = JoinNode(
            emp_scan(),
            dept_scan(),
            method="nlj",
        )
        assert len(join.schema) == 5

    def test_unknown_method(self):
        with pytest.raises(PlanError):
            JoinNode(emp_scan(), dept_scan(), method="zigzag")

    def test_equi_methods_require_keys(self):
        for method in ("hj", "smj"):
            with pytest.raises(PlanError):
                JoinNode(emp_scan(), dept_scan(), method=method)

    def test_inlj_requires_index(self):
        with pytest.raises(PlanError):
            JoinNode(
                emp_scan(),
                dept_scan(),
                method="inlj",
                equi_keys=[(("e", "dno"), ("d", "dno"))],
            )


class TestGroupByNode:
    def group(self, **kwargs):
        return GroupByNode(
            emp_scan(),
            group_keys=[("e", "dno")],
            aggregates=[("asal", AggregateCall("avg", col("e.sal")))],
            **kwargs,
        )

    def test_schema_has_keys_then_aggregates(self):
        group = self.group()
        assert [f.key for f in group.schema] == [
            ("e", "dno"),
            (None, "asal"),
        ]

    def test_aggregate_dtype_derived(self):
        group = self.group()
        assert group.schema.field_of(None, "asal").dtype is DataType.FLOAT

    def test_projection_can_drop_keys(self):
        group = GroupByNode(
            emp_scan(),
            group_keys=[("e", "dno"), ("e", "eno")],
            aggregates=[("asal", AggregateCall("avg", col("e.sal")))],
            projection=[(None, "asal")],
        )
        assert [f.key for f in group.schema] == [(None, "asal")]
        # internal schema still has everything for HAVING
        assert group.internal_schema.has("e", "eno")

    def test_name_collision_rejected(self):
        with pytest.raises(PlanError):
            GroupByNode(
                emp_scan(),
                group_keys=[("e", "dno")],
                aggregates=[
                    ("x", AggregateCall("sum", col("e.sal"))),
                    ("x", AggregateCall("avg", col("e.sal"))),
                ],
            )

    def test_unknown_method(self):
        with pytest.raises(PlanError):
            self.group(method="quantum")


class TestOtherNodes:
    def test_sort_validates_keys(self):
        with pytest.raises(Exception):
            SortNode(emp_scan(), [("zz", "q")])

    def test_sort_requires_keys(self):
        with pytest.raises(PlanError):
            SortNode(emp_scan(), [])

    def test_rename_schema(self):
        rename = RenameNode(
            emp_scan(), [("v", "salary", ("e", "sal"))]
        )
        assert [f.key for f in rename.schema] == [("v", "salary")]
        assert rename.schema.field_of("v", "salary").dtype is DataType.FLOAT

    def test_project_computes_dtype(self):
        project = ProjectNode(
            emp_scan(),
            [(None, "half", Arith("/", col("e.sal"), lit(2)))],
        )
        assert project.schema.field_of(None, "half").dtype is DataType.FLOAT

    def test_project_requires_outputs(self):
        with pytest.raises(PlanError):
            ProjectNode(emp_scan(), [])

    def test_filter_preserves_schema(self):
        filtered = FilterNode(
            emp_scan(), [Comparison(">", col("e.sal"), lit(1))]
        )
        assert filtered.schema == filtered.child.schema

    def test_filter_requires_predicates(self):
        with pytest.raises(PlanError):
            FilterNode(emp_scan(), [])


class TestTreeUtilities:
    def tree(self):
        join = JoinNode(
            emp_scan(),
            dept_scan(),
            method="hj",
            equi_keys=[(("e", "dno"), ("d", "dno"))],
        )
        return GroupByNode(
            join,
            group_keys=[("e", "dno")],
            aggregates=[("s", AggregateCall("sum", col("e.sal")))],
        )

    def test_plan_nodes_preorder(self):
        kinds = [type(node).__name__ for node in plan_nodes(self.tree())]
        assert kinds == ["GroupByNode", "JoinNode", "ScanNode", "ScanNode"]

    def test_explain_is_indented(self):
        text = explain(self.tree())
        lines = text.splitlines()
        assert lines[0].startswith("GroupBy")
        assert lines[1].startswith("  Join")
        assert lines[2].startswith("    Scan")


class TestProtocol:
    def test_replace_rebuilds_with_changes(self):
        join = JoinNode(
            emp_scan(), dept_scan(), "hj",
            equi_keys=[(("e", "dno"), ("d", "dno"))],
        )
        narrowed = join.replace(projection=[("e", "sal")], right=dept_scan("x"))
        assert type(narrowed) is JoinNode and narrowed is not join
        assert [f.key for f in narrowed.schema] == [("e", "sal")]
        assert narrowed.children[0] is join.left
        assert narrowed.right.alias == "x" and narrowed.method == "hj"

    def test_expressions_pair_each_with_its_scope(self):
        scan = ScanNode(
            "emp", "e", [Field("e", "eno", DataType.INT)],
            filters=(Comparison(">", col("e.sal"), lit(1)),),
            index_name="emp_pk", index_values=(Parameter(1),),
        )
        assert [scope for _, scope in scan.expressions()] == [None, None]
        group = GroupByNode(
            emp_scan(),
            group_keys=[("e", "dno")],
            aggregates=[("s", AggregateCall("sum", col("e.sal")))],
            having=(Comparison(">", col("s"), lit(1)),),
        )
        scopes = [scope for _, scope in group.expressions()]
        assert scopes == [group.child.schema, group.internal_schema]

    def test_map_expressions_unwraps_a_bound_probe_value(self):
        scan = ScanNode(
            "emp", "e", [Field("e", "eno", DataType.INT)],
            index_name="emp_pk", index_values=(Parameter(1), 7),
        )
        assert scan.map_expressions(lambda e: lit(5)).index_values == (5, 7)
        with pytest.raises(PlanError, match=r"\$1 needs a literal"):
            scan.map_expressions(lambda e: col("e.eno"))


class TestLegality:
    def test_legal_tree_passes(self, emp_dept_db):
        tree = TestTreeUtilities().tree()
        check_plan(tree, emp_dept_db.catalog)

    def test_join_key_must_exist(self):
        join = JoinNode(
            emp_scan(),
            dept_scan(),
            method="hj",
            equi_keys=[(("e", "missing"), ("d", "dno"))],
        )
        with pytest.raises(PlanError):
            check_plan(join)

    def test_scan_foreign_column_rejected(self, emp_dept_db):
        scan = ScanNode(
            "emp", "e", [Field("e", "nonexistent", DataType.INT)]
        )
        with pytest.raises(PlanError):
            check_plan(scan, emp_dept_db.catalog)

    def test_scan_filter_scoped_to_table(self, emp_dept_db):
        scan = ScanNode(
            "emp",
            "e",
            [Field("e", "eno", DataType.INT)],
            filters=(Comparison("=", col("d.budget"), lit(1)),),
        )
        with pytest.raises(PlanError):
            check_plan(scan, emp_dept_db.catalog)

    def test_unknown_index_rejected(self, emp_dept_db):
        scan = ScanNode(
            "emp",
            "e",
            [Field("e", "eno", DataType.INT)],
            index_name="no_such_index",
            index_values=(1,),
        )
        with pytest.raises(PlanError):
            check_plan(scan, emp_dept_db.catalog)

    def test_having_must_resolve_in_internal_schema(self):
        group = GroupByNode(
            emp_scan(),
            group_keys=[("e", "dno")],
            aggregates=[("s", AggregateCall("sum", col("e.sal")))],
            having=(Comparison(">", col("e.eno"), lit(1)),),  # not grouped
        )
        with pytest.raises(PlanError):
            check_plan(group)
