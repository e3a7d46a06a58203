"""Tests for approximate weak simulation via DD pruning."""

import math

import numpy as np
import pytest

from repro.algorithms import supremacy
from repro.algorithms.states import running_example_statevector
from repro.core import sample_dd, total_variation_distance
from repro.dd import (
    ApproximationConfig,
    Approximator,
    DDPackage,
    VectorDD,
    edge_contributions,
    is_terminal,
    prune_low_contribution,
    prune_to_node_budget,
)
from repro.exceptions import DDError
from repro.perf.bench import dusty_ghz
from repro.simulators import DDSimulator

from .conftest import random_statevector


@pytest.fixture(scope="module")
def scrambled_state():
    return DDSimulator().run(supremacy(3, 3, 10, seed=1))


class TestEdgeContributions:
    def test_root_contributions_sum_to_one(self):
        pkg = DDPackage()
        state = VectorDD.from_statevector(pkg, running_example_statevector())
        contributions = edge_contributions(state)
        root = state.edge.node.index
        total = contributions[(root, 0)] + contributions[(root, 1)]
        assert np.isclose(total, 1.0, atol=1e-9)
        assert np.isclose(contributions[(root, 0)], 0.75, atol=1e-9)

    def test_level_masses_sum_to_one(self, scrambled_state):
        contributions = edge_contributions(scrambled_state)
        per_level = {}
        # Map node index -> level via a walk.
        from repro.dd import is_terminal

        levels = {}
        seen = set()

        def visit(node):
            if is_terminal(node) or node.index in seen:
                return
            seen.add(node.index)
            levels[node.index] = node.var
            for child in node.edges:
                visit(child.node)

        visit(scrambled_state.edge.node)
        for (node_index, _bit), mass in contributions.items():
            level = levels[node_index]
            per_level[level] = per_level.get(level, 0.0) + mass
        for level, total in per_level.items():
            assert np.isclose(total, 1.0, atol=1e-6), level


class TestPruning:
    def test_zero_budget_keeps_structural_zero_edges_only(self):
        pkg = DDPackage()
        rng = np.random.default_rng(0)
        state = VectorDD.from_statevector(pkg, random_statevector(4, rng))
        result = prune_low_contribution(state, budget=0.0)
        assert result.removed_mass == 0.0
        assert np.isclose(state.fidelity(result.state), 1.0, atol=1e-9)

    def test_budget_bounds_removed_mass(self, scrambled_state):
        for budget in (0.01, 0.05, 0.2):
            result = prune_low_contribution(scrambled_state, budget=budget)
            assert result.removed_mass <= budget + 1e-12

    def test_fidelity_tracks_removed_mass(self, scrambled_state):
        result = prune_low_contribution(scrambled_state, budget=0.05)
        fidelity = scrambled_state.fidelity(result.state)
        assert fidelity >= 1.0 - 2 * result.removed_mass - 0.01
        assert result.expected_fidelity >= 0.95

    def test_size_shrinks_with_budget(self, scrambled_state):
        small = prune_low_contribution(scrambled_state, budget=0.01).nodes_after
        large = prune_low_contribution(scrambled_state, budget=0.2).nodes_after
        assert large <= small <= scrambled_state.node_count
        assert large < scrambled_state.node_count

    def test_pruned_state_is_normalised(self, scrambled_state):
        result = prune_low_contribution(scrambled_state, budget=0.1)
        assert np.isclose(result.state.norm_squared(), 1.0, atol=1e-9)

    def test_sampling_error_bounded(self, scrambled_state):
        result = prune_low_contribution(scrambled_state, budget=0.02)
        samples = sample_dd(result.state, 50_000, method="dd", seed=3)
        tvd = total_variation_distance(samples, scrambled_state.probabilities())
        # Removed mass 2% -> TVD of roughly that order (plus shot noise).
        assert tvd < 4 * 0.02 + 0.02

    def test_invalid_budget(self, scrambled_state):
        with pytest.raises(DDError):
            prune_low_contribution(scrambled_state, budget=1.0)
        with pytest.raises(DDError):
            prune_low_contribution(scrambled_state, budget=-0.1)


def _signatures(state):
    """(var, successors) signatures of every node reachable from the root."""
    seen = {}
    stack = [state.edge.node]
    while stack:
        node = stack.pop()
        if is_terminal(node) or node.index in seen:
            continue
        seen[node.index] = (
            node.var,
            tuple((child.node.index, child.weight) for child in node.edges),
        )
        stack.extend(child.node for child in node.edges)
    return seen


class TestCanonicality:
    """The pruned-then-rebuilt DD must stay in canonical form.

    Every surviving node is re-consed through ``make_vector_node``, so
    the rebuilt diagram must be exactly the unique canonical DD of the
    pruned state: no duplicate nodes, interned weights, and the same
    node count a from-scratch build of the same amplitudes produces.
    """

    def test_no_duplicate_nodes_after_prune(self, scrambled_state):
        result = prune_low_contribution(scrambled_state, budget=0.05)
        signatures = _signatures(result.state)
        assert len(set(signatures.values())) == len(signatures)

    def test_rebuild_matches_fresh_canonical_build(self, scrambled_state):
        result = prune_low_contribution(scrambled_state, budget=0.05)
        assert result.nodes_after < scrambled_state.node_count
        fresh = VectorDD.from_statevector(
            DDPackage(), result.state.to_statevector()
        )
        assert result.state.node_count == fresh.node_count

    def test_weights_are_interned(self, scrambled_state):
        result = prune_low_contribution(scrambled_state, budget=0.05)
        table = result.state.package.complex_table
        stack = [result.state.edge]
        while stack:
            edge = stack.pop()
            if edge.weight != 0:
                assert table.lookup(edge.weight) is edge.weight
            if not is_terminal(edge.node):
                stack.extend(edge.node.edges)


class TestApproximationConfig:
    def test_defaults_are_disabled(self):
        config = ApproximationConfig()
        assert not config.enabled
        assert config.strategy == "fidelity"

    def test_node_budget_selects_memory_strategy(self):
        config = ApproximationConfig(epsilon=0.05, node_budget=500)
        assert config.enabled
        assert config.strategy == "memory"

    def test_from_value_accepts_number_and_mapping(self):
        assert ApproximationConfig.from_value(0.05).epsilon == 0.05
        config = ApproximationConfig.from_value(
            {"epsilon": 0.1, "interval": 5, "node_budget": 100}
        )
        assert (config.epsilon, config.interval, config.node_budget) == (
            0.1,
            5,
            100,
        )
        same = ApproximationConfig(epsilon=0.2)
        assert ApproximationConfig.from_value(same) is same

    def test_from_value_round_trips_to_dict(self):
        config = ApproximationConfig(epsilon=0.05, interval=7, node_budget=9)
        assert ApproximationConfig.from_value(config.to_dict()) == config

    @pytest.mark.parametrize(
        "value",
        [True, "fast", {"epsilon": 0.05, "unknown": 1}, -0.1, 1.5],
    )
    def test_from_value_rejects_bad_inputs(self, value):
        with pytest.raises(DDError):
            ApproximationConfig.from_value(value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.01},
            {"epsilon": 1.0},
            {"epsilon": 0.05, "interval": 0},
            {"epsilon": 0.05, "node_budget": 0},
        ],
    )
    def test_constructor_validates(self, kwargs):
        with pytest.raises(DDError):
            ApproximationConfig(**kwargs)


class TestApproximator:
    def test_angle_budget_never_overspent(self, scrambled_state):
        config = ApproximationConfig(epsilon=0.05, interval=2)
        approximator = Approximator(config, total_operations=10)
        state = scrambled_state
        for ops in range(1, 11):
            if approximator.due(ops):
                state = approximator.prune(state, final=ops == 10)
        assert approximator.angle_spent <= approximator.angle_budget + 1e-12
        assert approximator.fidelity_bound >= 1.0 - config.epsilon - 1e-9
        true_fidelity = scrambled_state.fidelity(state)
        assert true_fidelity >= approximator.fidelity_bound - 1e-9

    def test_due_follows_interval(self):
        approximator = Approximator(
            ApproximationConfig(epsilon=0.05, interval=3), total_operations=9
        )
        assert [ops for ops in range(10) if approximator.due(ops)] == [3, 6, 9]

    def test_summary_reports_contract_fields(self, scrambled_state):
        config = ApproximationConfig(epsilon=0.05, interval=5)
        approximator = Approximator(config, total_operations=5)
        approximator.prune(scrambled_state, final=True)
        summary = approximator.summary()
        assert summary["epsilon"] == 0.05
        assert summary["strategy"] == "fidelity"
        assert summary["rounds"] == 1
        assert 0.95 <= summary["fidelity_bound"] <= 1.0
        assert math.isclose(
            summary["tvd_bound"],
            math.sqrt(1.0 - summary["fidelity_bound"]),
            abs_tol=1e-9,
        )


class TestNodeBudgetPruning:
    def test_fits_budget_when_reachable(self, scrambled_state):
        budget = scrambled_state.node_count // 2
        result = prune_to_node_budget(scrambled_state, budget)
        assert result.nodes_after <= budget

    def test_untouched_when_already_within_budget(self, scrambled_state):
        result = prune_to_node_budget(
            scrambled_state, scrambled_state.node_count
        )
        assert result.removed_mass == 0.0
        assert result.nodes_after == scrambled_state.node_count

    def test_mass_cap_bounds_removal(self, scrambled_state):
        result = prune_to_node_budget(
            scrambled_state, 1, max_removed_mass=0.05
        )
        assert result.removed_mass <= 0.05 + 1e-12


class TestSimulatorIntegration:
    def test_tvd_within_tracked_bound(self):
        circuit = dusty_ghz(8, 6)
        config = ApproximationConfig(epsilon=0.05, interval=10)
        simulator = DDSimulator(approximation=config)
        state = simulator.run(circuit)
        bound = simulator.stats.fidelity_bound
        assert bound is not None and bound >= 0.95
        exact = DDSimulator().run(circuit).probabilities()
        tvd = 0.5 * float(np.abs(state.probabilities() - exact).sum())
        assert tvd <= math.sqrt(1.0 - bound) + 1e-9

    def test_epsilon_zero_is_exact(self):
        simulator = DDSimulator(approximation=ApproximationConfig())
        state = simulator.run(dusty_ghz(6, 4))
        assert simulator.stats.fidelity_bound is None
        assert simulator.stats.approx_rounds == 0
        reference = DDSimulator().run(dusty_ghz(6, 4))
        assert np.allclose(
            state.probabilities(), reference.probabilities(), atol=1e-12
        )

    def test_auto_kernel_runs_the_kernel(self):
        simulator = DDSimulator(kernel="auto", approximation=0.05)
        assert simulator.resolved_kernel() == "vector"

    def test_node_limit_aborts_exact_build(self):
        with pytest.raises(MemoryError):
            DDSimulator(node_limit=100).run(dusty_ghz(10, 8))

    def test_approximation_survives_node_limit(self):
        config = ApproximationConfig(epsilon=0.05, interval=10)
        simulator = DDSimulator(approximation=config, node_limit=800)
        state = simulator.run(dusty_ghz(10, 8))
        assert state.node_count <= 800
        assert simulator.stats.fidelity_bound >= 0.95

    def test_memory_strategy_respects_epsilon(self):
        config = ApproximationConfig(
            epsilon=0.05, interval=10, node_budget=400
        )
        simulator = DDSimulator(approximation=config)
        simulator.run(dusty_ghz(10, 8))
        assert simulator.stats.fidelity_bound >= 0.95
