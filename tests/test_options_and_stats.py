"""Tests for optimizer options, search statistics, and cost params."""

from dataclasses import fields

import pytest

from repro.algebra.plan import ScanNode, plan_nodes
from repro.cost.params import CostParams
from repro.errors import ReproError
from repro.optimizer.options import (
    LEVELS,
    TRADITIONAL,
    OptimizerOptions,
    level_options,
)
from repro.optimizer.stats import SearchStats
from repro.workloads.generator import RandomQueryConfig, build_star_database


class TestOptimizerOptions:
    def test_defaults_enable_everything(self):
        options = OptimizerOptions()
        assert options.k_level > 0
        assert options.early_grouping == "eager"
        assert options.enable_invariant_split
        assert options.width_guard
        assert options.share_view_dp

    def test_traditional_preset(self):
        assert TRADITIONAL == level_options("traditional")
        assert TRADITIONAL.k_level == 0
        assert TRADITIONAL.early_grouping == "off"
        assert not TRADITIONAL.enable_invariant_split

    def test_each_level_forces_only_its_switches(self):
        options = OptimizerOptions(
            early_grouping="greedy",
            k_level=1,
            width_guard=False,
            share_view_dp=False,
        )
        for level, forced in LEVELS.items():
            leveled = level_options(level, options)
            for spec in fields(OptimizerOptions):
                expected = forced.get(spec.name, getattr(options, spec.name))
                assert getattr(leveled, spec.name) == expected, (level, spec)

    def test_unknown_level_rejected(self):
        with pytest.raises(ReproError, match="unknown optimizer 'mystery'"):
            level_options("mystery")

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            OptimizerOptions(k_level=-1)

    def test_unknown_early_grouping_rejected(self):
        with pytest.raises(ValueError, match="early_grouping"):
            OptimizerOptions(early_grouping="lazy")

    def test_frozen(self):
        options = OptimizerOptions()
        with pytest.raises(Exception):
            options.k_level = 5  # type: ignore[misc]


#: The switches some level forces by definition (``LEVELS``); every
#: *other* field must reach the cost model of every level.
TRANSFORMATION_FLAGS = {name for forced in LEVELS.values() for name in forced}

HOT_KEY_SQL = (
    "select f.d1_id, sum(f.qty) as s from fact f, dim1 d "
    "where f.d1_id = d.d1_id and f.d1_id = 1 group by f.d1_id"
)
VIEW_SQL = (
    "with v(d1_id, s) as (select f.d1_id, sum(f.qty) from fact f "
    "group by f.d1_id) select d.val, v.s from dim1 d, v "
    "where d.d1_id = v.d1_id and v.d1_id < 3"
)


def _fact_scan(result):
    (scan,) = [
        node
        for node in plan_nodes(result.plan)
        if isinstance(node, ScanNode) and node.table_name == "fact"
    ]
    return scan.props.rows, scan.props.cost


class TestOptionForwarding:
    """Every level derives its options from the caller's; no field may
    be silently reset on the way (the §5 no-worse comparison must be
    made under one cost model)."""

    @pytest.fixture(scope="class")
    def star_db(self):
        return build_star_database(
            RandomQueryConfig(seed=3, fact_rows=3000, zipf_skew=1.2)
        )

    @pytest.mark.parametrize(
        "name",
        [
            spec.name
            for spec in fields(OptimizerOptions)
            if spec.name not in TRANSFORMATION_FLAGS
        ],
    )
    def test_every_level_sees_the_field(self, star_db, name):
        default = getattr(OptimizerOptions(), name)
        flipped = (not default) if isinstance(default, bool) else 1
        options = OptimizerOptions(**{name: flipped})
        leaves = {
            _fact_scan(star_db.optimize(HOT_KEY_SQL, level, options))
            for level in LEVELS
        }
        assert len(leaves) == 1
        for sql in (HOT_KEY_SQL, VIEW_SQL):
            standalone = star_db.optimize(sql, "traditional", options).cost
            for level in LEVELS:
                if level == "traditional":
                    continue  # it is the standalone baseline
                searched = star_db.optimize(sql, level, options)
                assert searched.traditional_cost == standalone
                assert searched.cost <= standalone


class TestCostParams:
    def test_memory_floor(self):
        with pytest.raises(ValueError):
            CostParams(memory_pages=2)

    def test_valid_params(self):
        params = CostParams(memory_pages=16, cpu_tuple_weight=0.5)
        assert params.memory_pages == 16


class TestSearchStats:
    def test_as_dict_covers_every_field_and_flattens_timings(self):
        stats = SearchStats(joinplan_calls=4, connected_subsets_skipped=9)
        stats.add_time("dp", 0.125)
        out = stats.as_dict()
        assert out["joinplan_calls"] == 4
        assert out["connected_subsets_skipped"] == 9
        assert out["time_dp_s"] == 0.125
        assert "timings" not in out
        from dataclasses import fields

        named = {spec.name for spec in fields(SearchStats)} - {"timings"}
        assert named <= set(out)

    def test_summary_mentions_counters(self):
        stats = SearchStats(joinplan_calls=12, subsets_expanded=3)
        text = stats.summary()
        assert "joinplans=12" in text
        assert "subsets=3" in text

    def test_summary_shows_truncation_only_when_present(self):
        assert "truncated" not in SearchStats().summary()
        assert "truncated" in SearchStats(combinations_truncated=2).summary()
