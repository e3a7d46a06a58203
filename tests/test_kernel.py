"""The SoA cold-build kernel: round trips, bit-identity, fallbacks.

The contract under test (see ``docs/architecture.md``, hot path
section): the :class:`repro.perf.kernel.KernelEngine` produces states
that are *bit-identical* to the pure-python engine — same canonical
weights, same compiled arrays, same samples at equal seed — while the
Edge ⇄ SoA conversions are lossless and the executor surfaces every
forced measurement-boundary round trip as a kernel fallback.
"""

import math
import sys

import numpy as np
import pytest

from repro.algorithms.qft import qft
from repro.circuit import QuantumCircuit, random_circuit
from repro.circuit.operations import Barrier, Measurement
from repro.core.dd_sampler import DDSampler
from repro.core.shot_executor import ShotExecutor
from repro.dd import NormalizationScheme
from repro.dd.apply import GateApplier
from repro.dd.approximation import ApproximationConfig, prune_low_contribution
from repro.dd.complex_table import ComplexTable
from repro.dd.node import is_terminal
from repro.dd.package import DDPackage
from repro.dd.reorder import ReorderConfig
from repro.dd.vector_dd import VectorDD
from repro.exceptions import DDError, SimulationError
from repro.perf.bench import dusty_ghz
from repro.perf.kernel import KernelEngine, PythonEngine
from repro.simulators import DDSimulator
from repro.telemetry import Telemetry


def _engine(package: DDPackage, num_qubits: int, **kwargs) -> KernelEngine:
    applier = GateApplier(package, num_qubits)
    return KernelEngine(package, num_qubits, applier, **kwargs)


def _weights(state) -> list:
    """Every edge weight of a DD, root first, in first-visit order."""
    weights = [state.edge.weight]
    seen = set()
    stack = [state.edge.node]
    while stack:
        node = stack.pop()
        if is_terminal(node) or node.index in seen:
            continue
        seen.add(node.index)
        for child in node.edges:
            weights.append((node.var, child.weight))
            stack.append(child.node)
    return weights


def _ry_ladder(seed: int) -> QuantumCircuit:
    """Six layers of ``ry(0.7 + k * 1e-11)`` plus a ``cx`` ladder: angles
    a relative-guard table tells apart and an absolute one unifies."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(4)
    for _ in range(6):
        for qubit in range(4):
            circuit.ry(0.7 + int(rng.integers(100)) * 1e-11, qubit)
        for qubit in range(3):
            circuit.cx(qubit, qubit + 1)
    return circuit


def _build_edge(circuit: QuantumCircuit, package: DDPackage):
    """Run ``circuit`` on the python engine inside ``package``."""
    applier = GateApplier(package, circuit.num_qubits)
    edge = package.basis_state(circuit.num_qubits, 0)
    for op in circuit.operations:
        if isinstance(op, (Measurement, Barrier)):
            continue
        edge = applier.apply(edge, op)
    return edge


class TestEdgeSoARoundTrip:
    def test_round_trip_preserves_root_identity(self):
        # to_edge rebuilds through the unique table, so a lossless round
        # trip must hand back the *same* hash-consed node object.
        for seed in range(3):
            package = DDPackage()
            circuit = random_circuit(5, 30, seed=40 + seed)
            edge = _build_edge(circuit, package)
            engine = _engine(package, 5)
            engine.load(edge)
            back = engine.to_edge()
            assert back.node is edge.node
            assert back.weight == edge.weight

    def test_zero_edge_round_trip(self):
        package = DDPackage()
        engine = _engine(package, 3)
        engine.load(package.zero_edge)
        assert engine.state.is_zero
        back = engine.to_edge()
        assert back.is_zero

    def test_terminal_only_edge_rejected(self):
        package = DDPackage()
        engine = _engine(package, 3)
        with pytest.raises(DDError):
            engine.load(package.terminal_edge(1.0))

    def test_wrong_register_size_rejected(self):
        package = DDPackage()
        edge = _build_edge(random_circuit(3, 10, seed=1), package)
        engine = _engine(package, 5)
        with pytest.raises(DDError):
            engine.load(edge)

    def test_shared_subtrees_stay_shared(self):
        # |+>^n has one node per level; GHZ shares the all-|0> / all-|1>
        # spines.  Row counts must match the DD's node count exactly —
        # any duplication would break the uniquing invariant.
        package = DDPackage()
        circuit = QuantumCircuit(6)
        circuit.h(5)
        for qubit in range(5):
            circuit.cx(5 - qubit, 4 - qubit)
        edge = _build_edge(circuit, package)
        engine = _engine(package, 6)
        engine.load(edge)
        assert engine.state.node_count() == package.node_count(edge)
        assert engine.to_edge().node is edge.node

    def test_deep_register_beyond_recursion_limit(self):
        # load/to_edge walk with an explicit stack; a chain DD far
        # deeper than the interpreter recursion limit must round trip.
        depth = sys.getrecursionlimit() + 500
        package = DDPackage()
        edge = package.basis_state(depth, 0)
        engine = _engine(package, depth)
        engine.load(edge)
        assert engine.state.node_count() == depth
        back = engine.to_edge()
        assert back.node is edge.node
        assert back.weight == edge.weight


class TestBitIdentity:
    def test_random_circuits_bit_identical(self):
        circuits = [random_circuit(5, 40, seed=300 + seed) for seed in range(4)]
        circuits.append(random_circuit(6, 50, seed=77))
        for circuit in circuits:
            vector = DDSimulator().run(circuit)
            python = DDSimulator(kernel="python").run(circuit)
            assert np.array_equal(
                vector.probabilities(), python.probabilities()
            )

    def test_qft_samples_bit_identical(self):
        circuit = qft(8)
        vector = DDSimulator().run(circuit)
        python = DDSimulator(kernel="python").run(circuit)
        drawn_v = DDSampler(vector).compiled().sample(
            5000, np.random.default_rng(17)
        )
        drawn_p = DDSampler(python).compiled().sample(
            5000, np.random.default_rng(17)
        )
        assert np.array_equal(drawn_v, drawn_p)

    @pytest.mark.parametrize("seed", range(20))
    def test_relative_guard_table_bit_identical(self, seed):
        # The kernel interns through the table's own lookup, relative
        # guard included, and never serves a value the table evicted.
        circuit = _ry_ladder(seed)
        states = {}
        for kernel in ("auto", "python"):
            package = DDPackage(relative_tolerance=1e-12)
            states[kernel] = DDSimulator(package=package, kernel=kernel).run(circuit)
        assert _weights(states["auto"]) == _weights(states["python"])
        compiled = {
            kernel: DDSampler(state).compiled().to_arrays()
            for kernel, state in states.items()
        }
        for name, array in compiled["python"].items():
            assert np.array_equal(compiled["auto"][name], array), name

    def test_qft_on_a_basis_state_pins_the_add_memo(self, monkeypatch):
        # The ratio-keyed memo hits across the QFT's phase ladder: a
        # 10-qubit QFT on a basis state makes under a thousand kernel
        # additions (13,434 with the absolute-weight key it replaced).
        calls = []
        replay = KernelEngine._add

        def counting(engine, var, a, b):
            calls.append(var)
            return replay(engine, var, a, b)

        monkeypatch.setattr(KernelEngine, "_add", counting)
        DDSimulator().run(qft(10), initial_state=357)
        assert 0 < len(calls) <= 1_000

    def test_add_memos_match_across_prune_and_fallback(self):
        # ry(a) then ry(-a) on qubit 1 restores the state, so the next
        # ry(a) repeats the first one's additions: a memo hit.  A prune
        # round and a cswap fallback (each an edge round trip and a
        # load) sit between repeats; the python engine's memo must
        # empty there as the kernel's does, so both memos hold as many
        # entries after every step, and the states stay bit-identical.
        circuit = QuantumCircuit(4)
        circuit.h(0).h(1).h(2).ry(0.2, 3).cx(2, 3)
        for _ in range(2):
            circuit.ry(0.7, 1).ry(-0.7, 1).ry(0.7, 1).ry(-0.7, 1)
        circuit.cswap(3, 0, 2)
        circuit.ry(0.7, 1).ry(-0.7, 1).ry(0.7, 1)
        ops = list(circuit.operations)
        steps = ops[:9] + ["prune"] + ops[9:]
        runs = {}
        for engine_class in (KernelEngine, PythonEngine):
            package = DDPackage()
            engine = engine_class(package, 4, GateApplier(package, 4))
            engine.load(package.basis_state(4, 0))
            memo = engine._add_cache if engine_class is KernelEngine else (
                package._add_table
            )
            sizes, hits = [], []
            for step in steps:
                if step == "prune":
                    state = VectorDD(package, engine.to_edge(), 4)
                    pruned = prune_low_contribution(state, 0.05, package=package)
                    assert pruned.removed_edges > 0
                    engine.load(pruned.state.edge)
                else:
                    engine.apply(step)
                sizes.append(len(memo))
                hits.append(package._add_table.hits)
            runs[engine.name] = (sizes, engine.to_edge(), package, hits)
        kernel_sizes, kernel_edge = runs["vector"][:2]
        python_sizes, python_edge, package, hits = runs["python"]
        assert kernel_sizes == python_sizes
        # The repeats reuse entries before the prune round (steps 5-8),
        # between it and the fallback (10-13) and after the fallback.
        for first, last in ((5, 8), (10, 13), (15, 17)):
            assert hits[last] > hits[first - 1]
        assert _weights(VectorDD(package, kernel_edge, 4)) == _weights(
            VectorDD(package, python_edge, 4)
        )

    FEATURE_BUILDS = {
        "approximate": {"approximation": ApproximationConfig(0.05, interval=4)},
        "reordered": {
            "reorder": ReorderConfig(enabled=True, interval=4, min_nodes=2)
        },
        "leftmost": {"scheme": NormalizationScheme.LEFTMOST},
    }

    @pytest.mark.parametrize(
        "settings", FEATURE_BUILDS.values(), ids=FEATURE_BUILDS.keys()
    )
    def test_feature_builds_bit_identical(self, settings):
        # Pruning and sifting round-trip the SoA state through the edge
        # form; LEFTMOST replays normalize_weights.  None moves a bit.
        for circuit in (dusty_ghz(6, 4), random_circuit(6, 60, seed=5), qft(5)):
            vector = DDSimulator(**settings)
            python = DDSimulator(kernel="python", **settings)
            state = vector.run(circuit)
            reference = python.run(circuit)
            assert vector.stats.kernel == "vector"
            assert _weights(state) == _weights(reference)
            for field in (
                "strategy_counts",
                "level_to_qubit",
                "reorder_swaps_kept",
                "fidelity_bound",
                "approx_removed_edges",
            ):
                assert getattr(vector.stats, field) == getattr(
                    python.stats, field
                ), field


class TestKernelSelection:
    """The one engine choice, made alike by DDSimulator and ShotExecutor."""

    CASES = [
        ({}, "vector"),
        ({"kernel": "python"}, "python"),
    ]
    DD_ONLY_SETTINGS = [
        {},
        {"approximation": 0.05},
        {"reorder": True},
        {"approximation": 0.05, "reorder": True},
    ]

    @staticmethod
    def _executor_engine(executor: ShotExecutor) -> str:
        executor.run(10, seed=1)
        return "vector" if executor.stats["kernel_segments"] else "python"

    def test_auto_resolves_by_scheme(self):
        # Every scheme, approximate or not, reordered or not, runs on the
        # SoA kernel; only the python switch picks the reference.
        for scheme in NormalizationScheme:
            for settings in self.DD_ONLY_SETTINGS:
                for switch, engine in self.CASES:
                    simulator = DDSimulator(scheme=scheme, **settings, **switch)
                    assert simulator.resolved_kernel() == engine
                    simulator.run(dusty_ghz(5, 3))
                    assert simulator.stats.kernel == engine

    def test_executor_makes_the_same_choice(self):
        circuit = TestExecutorFallbacks._mid_circuit()
        for scheme in NormalizationScheme:
            for settings, engine in self.CASES:
                executor = ShotExecutor(circuit, scheme=scheme, **settings)
                assert self._executor_engine(executor) == engine

    def test_unknown_kernel_rejected(self):
        # "auto" and "python" are the only switches left.
        for kernel in ("vector", "bogus"):
            with pytest.raises(ValueError):
                DDSimulator(kernel=kernel)
            with pytest.raises(ValueError):
                ShotExecutor(QuantumCircuit(2), kernel=kernel)

    def test_stats_record_engine(self):
        simulator = DDSimulator()
        simulator.run(qft(4))
        assert simulator.stats.kernel == "vector"
        assert simulator.stats.kernel_levels > 0
        assert simulator.stats.kernel_fallbacks == 0
        python = DDSimulator(kernel="python")
        python.run(qft(4))
        assert python.stats.kernel == "python"
        assert python.stats.kernel_levels == 0


class TestOneBuildLoop:
    """Both engines run through DDSimulator's one loop."""

    @pytest.mark.parametrize(
        "circuit", [qft(8), random_circuit(6, 60, seed=91)], ids=["qft_8", "random"]
    )
    def test_compaction_keeps_strategy_counters(self, circuit):
        # A tiny threshold compacts after almost every gate; the python
        # engine used to restart its strategy counters there.
        reference = DDSimulator(kernel="python", auto_compact_threshold=0)
        expected = reference.run(circuit).probabilities()
        for kernel in ("auto", "python"):
            simulator = DDSimulator(kernel=kernel, auto_compact_threshold=20)
            probabilities = simulator.run(circuit).probabilities()
            assert np.array_equal(probabilities, expected)
            assert simulator.stats.strategy_counts == reference.stats.strategy_counts
            assert (
                simulator.stats.diagonal_term_applications
                == reference.stats.diagonal_term_applications
            )

    def test_compaction_bounds_the_unique_table(self):
        # Every cswap falls back through the edge form, which leaves
        # nodes in the package's unique table; the kernel must count and
        # collect them as the python engine does.
        rng = np.random.default_rng(0)
        circuit = QuantumCircuit(6)
        for _ in range(40):
            circuit.ry(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(6)))
            circuit.cswap(*(int(q) for q in rng.choice(6, 3, replace=False)))
        settings = {"optimize": False, "auto_compact_threshold": 300}
        expected = DDSimulator(kernel="python", **settings).run(circuit)
        simulator = DDSimulator(**settings)
        state = simulator.run(circuit)
        assert simulator.stats.kernel_fallbacks == 40
        assert len(simulator.package.unique_table) < 300
        assert np.array_equal(state.probabilities(), expected.probabilities())

    @staticmethod
    def _traced_build(**settings) -> Telemetry:
        session = Telemetry(probe_interval=1)
        DDSimulator(telemetry=session, **settings).run(qft(5))
        return session

    def test_kernel_build_emits_its_span_and_counter(self):
        session = self._traced_build()
        spans = {span.name: span for span in session.tracer.spans}
        kernel_span = spans["build.kernel"]
        assert kernel_span.parent_id == spans["build"].span_id
        assert kernel_span.attrs["engine"] == "vector"
        assert kernel_span.attrs["fallbacks"] == 0
        assert kernel_span.attrs["levels"] > 0
        counters = session.registry.snapshot()["counters"]
        assert counters["kernel.levels"] == kernel_span.attrs["levels"]
        assert session.prober.records

    def test_python_build_emits_no_kernel_span(self):
        session = self._traced_build(kernel="python")
        names = {span.name for span in session.tracer.spans}
        assert "build" in names and "build.kernel" not in names
        assert "kernel.levels" not in session.registry.snapshot()["counters"]
        assert session.prober.records


class TestExecutorFallbacks:
    @staticmethod
    def _mid_circuit(num_qubits: int = 4) -> QuantumCircuit:
        circuit = QuantumCircuit(num_qubits)
        for qubit in range(num_qubits):
            circuit.h(qubit)
        circuit.measure(0)
        for qubit in range(num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
        circuit.measure(1)
        circuit.measure_all()
        return circuit

    def test_mid_circuit_counts_fallbacks_and_telemetry(self):
        session = Telemetry()
        executor = ShotExecutor(self._mid_circuit(), telemetry=session)
        executor.run(500, seed=3)
        assert executor.stats["kernel_segments"] > 0
        assert executor.stats["kernel_measurement_fallbacks"] > 0
        counters = session.registry.snapshot()["counters"]
        assert (
            counters["kernel.fallbacks"]
            == executor.stats["kernel_measurement_fallbacks"]
        )

    def test_mid_circuit_counts_bit_identical_to_python(self):
        circuit = self._mid_circuit()
        vector = ShotExecutor(circuit).run(4000, seed=21)
        python = ShotExecutor(circuit, kernel="python").run(4000, seed=21)
        assert vector.counts == python.counts

    def test_terminal_measurements_need_no_fallback(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).measure_all()
        executor = ShotExecutor(circuit)
        executor.run(200, seed=5)
        assert executor.stats["kernel_segments"] > 0
        assert executor.stats["kernel_measurement_fallbacks"] == 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SimulationError):
            ShotExecutor(QuantumCircuit(2), kernel="bogus")


class TestSnapRestealing:
    """The kernel probes ``ComplexTable.fixed`` before ``lookup``, so the
    index must hold exactly the values a lookup resolves to themselves."""

    def test_snapped_value_is_not_cached_across_inserts(self):
        # Regression: a value that *snaps* must be re-resolved against
        # the live table on every occurrence.  Canonical entries only
        # appear over time, and a later insert can sit closer to the
        # value than its previous snap target — indexing the first
        # resolution would freeze the wrong answer.
        table = ComplexTable()
        tol = table.tolerance
        probe = complex(0.95 * tol, 0.0)
        assert table.lookup(probe) == 0.0
        assert probe not in table.fixed
        stealer = complex(1.8 * tol, 0.0)  # > tol from 0: new canonical
        assert table.lookup(stealer) == stealer
        # The new canonical is within 0.85*tol of the probe — closer
        # than zero — so the probe must now re-snap, still unindexed.
        assert table.lookup(probe) == stealer
        assert probe not in table.fixed
        assert table.fixed[stealer] == stealer

    def test_canonical_fixed_points_are_cached(self):
        table = ComplexTable()
        value = complex(0.25, -0.5)
        assert table.lookup(value) == value
        assert table.fixed[value] == value
        assert table.lookup(value) == value
        # A -0.0 component keys the same entry and reads back as +0.0.
        signed = table.lookup(complex(-0.0, 0.3))
        assert math.copysign(1.0, table.fixed[complex(0.0, 0.3)].real) == 1.0
        assert table.fixed[complex(-0.0, 0.3)] == signed


BELL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


class TestServiceAndCLIKernel:
    def test_artifact_meta_records_engine(self, tmp_path):
        from repro.service.api import SamplingRequest, SamplingService

        request = SamplingRequest(qft(4), 100, seed=2)
        with SamplingService(cache_dir=str(tmp_path)) as service:
            response = service.sample(request)
            stored = service.store.get(response.key)
        assert response.cache == "built"
        assert stored.meta["engine"] == "vector"
        assert stored.meta["kernel_fallbacks"] == 0

    def test_kernel_not_part_of_cache_key(self):
        # The build picks its engine: a record's kernel field is ignored
        # like any unknown field, so it keys and samples exactly like
        # the same record without it (the values once refused included).
        from repro.service.api import SamplingRequest, SamplingService

        for kernel, extra in [
            ("python", {}),
            ("vector", {}),
            ("bogus", {}),
            ("vector", {"approximation": 0.05}),
        ]:
            plain = {"circuit": "qft_4", "shots": 500, "seed": 4, **extra}
            with SamplingService() as service:
                without = service.sample(SamplingRequest.from_record(plain))
            with SamplingService() as service:
                tagged = service.sample(
                    SamplingRequest.from_record({**plain, "kernel": kernel})
                )
            assert without.ok and tagged.ok, tagged.error
            assert tagged.key == without.key
            assert tagged.result.counts == without.result.counts

    def test_cli_kernel_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bell.qasm"
        path.write_text(BELL_QASM)
        with pytest.raises(SystemExit) as info:
            main([str(path), "--shots", "50", "--seed", "1", "--kernel", "python"])
        assert info.value.code == 2
        assert "--kernel" in capsys.readouterr().err
