"""Parity tests for the bitset join graph and its DP enumerator.

Two layers of guarantee:

1. :class:`JoinGraph.connected_subsets` visits *exactly* the connected
   subsets of size ≥ 2, cross-checked against a brute-force walk of all
   2ⁿ subsets on randomized chain/star/clique/disconnected workloads.
2. The :class:`BlockOptimizer`'s connected-subset walk chooses plans of
   identical cost *and operator shape* as the exhaustive walk (the seed
   search space, ``_dp_table(force_exhaustive=True)``), at both the
   greedy and the traditional level. The workloads use selective
   equijoins (large key domain) so connected join orders strictly
   dominate cross products and the comparison is free of equal-cost
   ties.
"""

import pytest

from repro.algebra.plan import explain
from repro.optimizer.block import (
    BaseLeaf,
    BlockOptimizer,
    GroupingSpec,
    _BlockContext,
)
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.options import level_options
from repro.workloads import JoinWorkloadConfig, build_join_workload

TOPOLOGIES = ("chain", "star", "clique", "disconnected")


def _graph_of(workload):
    return JoinGraph(
        (ref.alias for ref in workload.relations), workload.predicates
    )


def _is_connected(graph, mask):
    """Whether *mask* is one predicate-connected component: a flood
    fill from its lowest alias reaches all of it."""
    reached = frontier = mask & -mask
    while frontier:
        grown = (reached | graph.neighbors(reached)) & mask
        frontier = grown & ~reached
        reached = grown
    return reached == mask


def _brute_force_connected(graph):
    """All connected subsets of size ≥ 2, found the slow, obvious way."""
    found = set()
    for mask in range(1, graph.all_mask + 1):
        if mask.bit_count() >= 2 and _is_connected(graph, mask):
            found.add(mask)
    return found


def _grouped_context(workload, optimizer):
    spec = GroupingSpec(
        group_keys=workload.group_keys, aggregates=workload.aggregates
    )
    leaves = [BaseLeaf(ref) for ref in workload.relations]
    return _BlockContext(
        optimizer, leaves, tuple(workload.predicates), spec,
        tuple(workload.select),
    )


def _plans_by_enumeration(workload, level):
    """The block's chosen plan under each subset walk, same *level*."""
    plans = {}
    for walk in ("graph", "exhaustive"):
        optimizer = BlockOptimizer(
            workload.db.catalog, workload.db.params, level_options(level)
        )
        context = _grouped_context(workload, optimizer)
        table = optimizer._dp_table(
            context, force_exhaustive=walk == "exhaustive"
        )
        plans[walk], _ = optimizer._finalize(
            context, table[context.graph.all_mask]
        )
    return plans


class TestConnectedSubsetEnumeration:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_visits_exactly_the_connected_subsets(self, topology, seed):
        workload = build_join_workload(
            JoinWorkloadConfig(topology=topology, leaves=6, seed=seed)
        )
        graph = _graph_of(workload)
        enumerated = list(graph.connected_subsets())
        assert len(enumerated) == len(set(enumerated)), "duplicates"
        assert set(enumerated) == _brute_force_connected(graph)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_sizes_ascend(self, topology):
        workload = build_join_workload(
            JoinWorkloadConfig(topology=topology, leaves=6, seed=0)
        )
        graph = _graph_of(workload)
        sizes = [mask.bit_count() for mask in graph.connected_subsets()]
        assert sizes == sorted(sizes)

    def test_chain_counts_are_quadratic(self):
        # An n-leaf chain has n(n-1)/2 connected subsets of size >= 2.
        workload = build_join_workload(
            JoinWorkloadConfig(topology="chain", leaves=7, seed=0)
        )
        graph = _graph_of(workload)
        assert sum(1 for _ in graph.connected_subsets()) == 7 * 6 // 2

    def test_disconnected_graph_has_two_components(self):
        workload = build_join_workload(
            JoinWorkloadConfig(topology="disconnected", leaves=6, seed=0)
        )
        graph = _graph_of(workload)
        assert graph.component_count() == 2
        # No connected subset spans the two components.
        components = graph.components()
        for mask in graph.connected_subsets():
            assert any(mask & ~part == 0 for part in components)

    def test_all_subsets_is_the_full_powerset(self):
        workload = build_join_workload(
            JoinWorkloadConfig(topology="star", leaves=5, seed=0)
        )
        graph = _graph_of(workload)
        everything = list(graph.all_subsets())
        assert len(everything) == 2**5 - 1 - 5  # drop empty + singletons
        assert set(everything) >= set(graph.connected_subsets())


class TestOptimizerParity:
    """Graph enumeration chooses the same plan as the exhaustive seed
    search space — cost and operator shape — on every workload."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("level", ["greedy", "traditional"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_plan_and_cost(self, topology, level, seed):
        workload = build_join_workload(
            JoinWorkloadConfig(topology=topology, leaves=5, seed=seed)
        )
        plans = _plans_by_enumeration(workload, level)
        assert plans["graph"].props.cost == plans["exhaustive"].props.cost
        assert explain(plans["graph"]) == explain(plans["exhaustive"])

    def test_graph_mode_skips_disconnected_subsets(self):
        workload = build_join_workload(
            JoinWorkloadConfig(topology="chain", leaves=6, seed=0)
        )
        spec = GroupingSpec(
            group_keys=workload.group_keys, aggregates=workload.aggregates
        )
        optimizer = BlockOptimizer(workload.db.catalog, workload.db.params)
        optimizer.optimize_block(
            [BaseLeaf(ref) for ref in workload.relations],
            workload.predicates,
            spec,
            workload.select,
        )
        stats = optimizer.stats
        # 6-leaf chain: 15 connected subsets out of 57 of size >= 2.
        assert stats.subsets_expanded == 15
        assert stats.connected_subsets_skipped == 57 - 15
        assert stats.predicate_split_cache_hits > 0
        assert stats.timings.get("dp", 0.0) > 0.0

    def test_exhaustive_mode_counts_everything(self):
        workload = build_join_workload(
            JoinWorkloadConfig(topology="chain", leaves=6, seed=0)
        )
        optimizer = BlockOptimizer(workload.db.catalog, workload.db.params)
        optimizer._dp_table(
            _grouped_context(workload, optimizer), force_exhaustive=True
        )
        # every one of the 57 subsets of size >= 2, none skipped
        assert optimizer.stats.subsets_expanded == 57
        assert optimizer.stats.connected_subsets_skipped == 0


class TestScalingBenchSmoke:
    def test_smallest_size_runs_and_agrees(self):
        # The smallest cell of the retired optimizer-scaling benchmark,
        # asserted directly: on 4-leaf chain and star workloads, with
        # push-down on (greedy) and off (traditional), connected-subset
        # enumeration reaches the exhaustive enumeration's cost.
        for topology in ("chain", "star"):
            workload = build_join_workload(
                JoinWorkloadConfig(topology=topology, leaves=4, seed=0)
            )
            for level in ("greedy", "traditional"):
                plans = _plans_by_enumeration(workload, level)
                assert (
                    plans["graph"].props.cost
                    == plans["exhaustive"].props.cost
                    > 0
                ), (topology, level)
