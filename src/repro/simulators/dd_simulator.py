"""Strong simulation into a decision diagram.

The substrate of the paper's Section IV: gates are applied one at a time
to a vector DD, so memory tracks the DD size of the *intermediate* states
rather than ``2^n``.  The simulator records the peak node count, which is
the real memory driver for circuits whose intermediate states are larger
than their final state.
"""

from __future__ import annotations

import math
from typing import Optional

from .. import telemetry as _telemetry
from ..circuit.circuit import QuantumCircuit
from ..circuit.operations import Barrier, Measurement
from ..circuit.transforms import permute_instruction
from ..compile import optimize_circuit
from ..dd.apply import GateApplier
from ..dd.approximation import (
    DEFAULT_PRUNE_INTERVAL,
    ApproximationConfig,
    Approximator,
)
from ..dd.normalization import NormalizationScheme
from ..dd.package import DDPackage
from ..dd.reorder import (
    ReorderConfig,
    invert_permutation,
    is_identity_permutation,
    sift,
    unpermute_index,
)
from ..dd.vector_dd import VectorDD
from ..perf.kernel import select_engine
from .base import SimulationStats, StrongSimulator
from .build_spec import BuildSpec

__all__ = ["DDSimulator"]

#: Cadence (applied gates) for the build-time ``node_limit`` guard.
#: Matches the approximation/probe interval so one O(size) traversal per
#: window serves all three consumers.
NODE_LIMIT_CHECK_INTERVAL = DEFAULT_PRUNE_INTERVAL


def _gate_label(instruction) -> str:
    """Short telemetry label for an instruction (gate name or block size)."""
    gate = getattr(instruction, "gate", None)
    if gate is not None:
        return gate.name
    terms = getattr(instruction, "terms", None)
    if terms is not None:
        return f"diagonal[{len(terms)}]"
    return type(instruction).__name__.lower()


class DDSimulator(StrongSimulator):
    """Decision-diagram strong simulator.

    ``scheme`` selects the edge-weight normalisation; the paper's L2
    scheme (the default) is what makes subsequent sampling trivial.
    ``track_peak`` counts nodes after every gate — useful diagnostics, but
    it adds an O(size) traversal per gate, so benchmarks disable it.
    ``telemetry`` attaches a :class:`repro.telemetry.Telemetry` session:
    every run is then traced (``compile``/``build`` spans, per-gate
    ``apply`` spans, periodic DD/RSS probes) and the run's counters are
    absorbed into the session's metrics registry.

    Every build runs on the structure-of-arrays kernel
    (:func:`repro.perf.kernel.select_engine`), whatever its scheme,
    approximation or reordering: pruning and sifting rounds convert the
    working state to an edge DD and back.  ``kernel="python"`` forces
    the python reference instead (the bit-identity tests, the
    ``kernel-vs-python`` fuzz oracle and the bench's python column use
    it); ``"auto"`` is the default.  Both are bit-identical — same final
    DD weights, same compiled arrays, same samples at equal seed — and
    one loop drives either.
    """

    def __init__(
        self,
        scheme: NormalizationScheme = NormalizationScheme.L2,
        package: Optional[DDPackage] = None,
        use_fast_paths: bool = True,
        track_peak: bool = False,
        auto_compact_threshold: int = 400_000,
        optimize: bool = True,
        telemetry: Optional["_telemetry.Telemetry"] = None,
        kernel: str = "auto",
        approximation: Optional[ApproximationConfig] = None,
        node_limit: Optional[int] = None,
        reorder: Optional[ReorderConfig] = None,
    ):
        spec = BuildSpec.of(
            scheme=scheme,
            optimize=optimize,
            approximation=approximation,
            reorder=reorder,
        )
        if node_limit is not None and node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {node_limit}")
        self.package = package if package is not None else DDPackage(scheme=scheme)
        self.use_fast_paths = use_fast_paths
        self.track_peak = track_peak
        #: Run the compile pipeline (:mod:`repro.compile`) on every input
        #: circuit before simulation.  The rewrite is exactly equivalent;
        #: disable for apples-to-apples benchmarking of the raw circuit.
        self.optimize = spec.optimize
        #: Garbage-collect the package when the unique table exceeds this
        #: many nodes (0 disables).  Long iterative circuits (Grover)
        #: otherwise retain every intermediate state ever built.
        self.auto_compact_threshold = auto_compact_threshold
        #: Optional telemetry session activated for the duration of every
        #: run (when ``None`` the simulator still honours a session that
        #: an outer caller — e.g. ``simulate_and_sample`` — activated).
        self.telemetry = telemetry
        #: Optional :class:`~repro.dd.approximation.ApproximationConfig`;
        #: when enabled, :meth:`run` interleaves pruning rounds with gate
        #: application and records the fidelity bound in :attr:`stats`.
        self.approximation = spec.approximation
        #: Build-time node-count ceiling.  Exceeding it raises
        #: :class:`MemoryError` *during* the build (checked every
        #: ``NODE_LIMIT_CHECK_INTERVAL`` gates and at the end) so callers
        #: like the BuildScheduler can degrade before the peak lands.
        self.node_limit = node_limit
        #: Optional :class:`~repro.dd.reorder.ReorderConfig`; when
        #: enabled, :meth:`run` derives an initial qubit order from
        #: circuit connectivity (``static``) and/or interleaves sifting
        #: rounds with gate application (``dynamic``), recording the
        #: final level-to-qubit permutation in :attr:`stats`.
        self.reorder = spec.reorder
        self._engine = select_engine(kernel)
        self._stats = SimulationStats()

    @property
    def stats(self) -> SimulationStats:
        """Statistics from the most recent :meth:`run`."""
        return self._stats

    def run(self, circuit: QuantumCircuit, initial_state: int = 0) -> VectorDD:
        """Simulate ``circuit`` from ``|initial_state⟩`` into a VectorDD.

        Measurements and barriers are skipped; the returned DD represents
        the full final state, ready for weak simulation.
        """
        with _telemetry.activate(self.telemetry):
            return self._run_traced(circuit, initial_state)

    def resolved_kernel(self) -> str:
        """The engine a :meth:`run` will use: ``"vector"`` or ``"python"``."""
        return self._engine.name

    def _run_traced(self, circuit: QuantumCircuit, initial_state: int) -> VectorDD:
        """The :meth:`run` body, executed under the active telemetry (if any)."""
        package = self.package
        compile_stats: dict = {}
        if self.optimize:
            circuit, rewrite = optimize_circuit(
                circuit, tolerance=package.tolerance
            )
            compile_stats = rewrite.to_dict()
        num_qubits = circuit.num_qubits
        reorder = self.reorder
        # ``initial_order[l]`` = original qubit at level ``l`` after the
        # static relabel; ``dyn_perm`` tracks dynamic sifting on top of
        # it (in relabelled space).  The composition lands in stats.
        initial_order = tuple(range(num_qubits))
        if reorder is not None and reorder.static:
            from ..compile import apply_initial_order

            with _telemetry.span("reorder.layout") as layout_span:
                circuit, initial_order = apply_initial_order(circuit)
                layout_span.set_attr(
                    "identity", is_identity_permutation(initial_order)
                )
        dyn_perm = list(range(num_qubits))
        sift_budget = reorder.budget if reorder is not None else 0
        if not is_identity_permutation(initial_order) and initial_state:
            # Level l now holds original qubit initial_order[l], so the
            # initial basis index must be permuted into level space.
            initial_state = unpermute_index(
                initial_state, invert_permutation(initial_order)
            )
        applier = GateApplier(package, num_qubits, use_fast_paths=self.use_fast_paths)
        engine = self._engine(package, num_qubits, applier)
        engine.load(package.basis_state(num_qubits, initial_state))
        stats = self._stats = SimulationStats(
            num_qubits=num_qubits, compile_stats=compile_stats, kernel=engine.name
        )
        approximator = (
            Approximator(self.approximation, circuit.num_operations, package=package)
            if self.approximation is not None
            else None
        )
        peak = engine.node_count() if self.track_peak else 0
        # Single hot-path hook: the per-gate span and probe code run only
        # when a session is active; the disabled path is the plain loop.
        session = _telemetry.active()
        build_span = (
            session.span("build", num_qubits=num_qubits, backend="dd")
            if session is not None
            else _telemetry.NULL_SPAN
        )
        # ``qubit_to_level`` redirects gates onto the current dynamic
        # order; ``None`` while the order is untouched (the common case).
        qubit_to_level: Optional[list] = None
        # The kernel span must be created *inside* the build span's
        # context: the tracer assigns parents at creation time.
        with build_span, (
            session.span("build.kernel", engine="vector")
            if session is not None and engine.name == "vector"
            else _telemetry.NULL_SPAN
        ) as kernel_span:
            for instruction in circuit:
                if isinstance(instruction, (Measurement, Barrier)):
                    continue
                if qubit_to_level is not None:
                    instruction = permute_instruction(instruction, qubit_to_level)
                if session is not None:
                    with session.span("apply", gate=_gate_label(instruction)):
                        engine.apply(instruction)
                else:
                    engine.apply(instruction)
                stats.applied_operations += 1
                applied = stats.applied_operations
                if self.track_peak:
                    peak = max(peak, engine.node_count())
                if approximator is not None and approximator.due(applied):
                    engine.load(
                        self._approx_round(
                            approximator, engine.to_edge(), num_qubits, session
                        )
                    )
                if (
                    reorder is not None
                    and reorder.dynamic
                    and sift_budget > 0
                    and applied % reorder.interval == 0
                    and engine.node_count() >= reorder.min_nodes
                ):
                    result = sift(
                        package,
                        engine.to_edge(),
                        num_qubits,
                        budget=sift_budget,
                        level_to_qubit=dyn_perm,
                    )
                    engine.load(result.edge)
                    sift_budget -= result.swaps_attempted
                    if result.swaps_attempted:
                        stats.reorder_rounds += 1
                        stats.reorder_swaps += result.swaps_attempted
                        stats.reorder_swaps_kept += result.swaps_kept
                    if result.changed:
                        dyn_perm[:] = result.level_to_qubit
                        qubit_to_level = list(invert_permutation(dyn_perm))
                if (
                    self.node_limit is not None
                    and applied % NODE_LIMIT_CHECK_INTERVAL == 0
                    and engine.node_count() > self.node_limit
                ):
                    raise MemoryError(
                        f"DD grew to {engine.node_count()} nodes after "
                        f"{applied} gates, over the limit of {self.node_limit}"
                    )
                if session is not None and session.prober.due(applied):
                    session.prober.record(
                        session.tracer.clock(),
                        applied,
                        state_nodes=engine.node_count(),
                        unique_nodes=engine.table_size(),
                    )
                if (
                    self.auto_compact_threshold
                    and engine.table_size() > self.auto_compact_threshold
                ):
                    engine.compact()
            if approximator is not None:
                engine.load(
                    self._approx_round(
                        approximator, engine.to_edge(), num_qubits, session, final=True
                    )
                )
        state = engine.to_edge()
        stats.strategy_counts = applier.strategy_counts()
        stats.diagonal_term_applications = applier.diagonal_term_applications
        stats.kernel_fallbacks = engine.stats.fallbacks
        stats.kernel_levels = engine.stats.levels_processed
        stats.final_dd_nodes = package.node_count(state)
        stats.peak_dd_nodes = max(peak, stats.final_dd_nodes)
        if approximator is not None:
            stats.approx_rounds = approximator.rounds
            stats.approx_removed_edges = approximator.removed_edges
            stats.approx_removed_mass = approximator.removed_mass
            stats.fidelity_bound = approximator.fidelity_bound
        if reorder is not None:
            # Compose static layout and dynamic sifting into one map
            # from final DD level to original circuit qubit.
            stats.level_to_qubit = tuple(initial_order[label] for label in dyn_perm)
        if self.node_limit is not None and stats.final_dd_nodes > self.node_limit:
            raise MemoryError(
                f"final DD has {stats.final_dd_nodes} nodes, over the "
                f"limit of {self.node_limit}"
            )
        if session is not None:
            build_span.set_attr("applied_operations", stats.applied_operations)
            build_span.set_attr("final_dd_nodes", stats.final_dd_nodes)
            if approximator is not None:
                build_span.set_attr("fidelity_bound", approximator.fidelity_bound)
            if reorder is not None:
                build_span.set_attr("reorder_rounds", stats.reorder_rounds)
                build_span.set_attr("reorder_swaps_kept", stats.reorder_swaps_kept)
            if engine.name == "vector":
                kernel_span.set_attr("fallbacks", engine.stats.fallbacks)
                kernel_span.set_attr("levels", engine.stats.levels_processed)
                session.registry.counter("kernel.levels").inc(
                    engine.stats.levels_processed
                )
            session.registry.record_build(stats)
            session.registry.record_dd_tables(package.stats())
        return VectorDD(package, state, num_qubits)

    def _approx_round(
        self,
        approximator: Approximator,
        edge,
        num_qubits: int,
        session,
        final: bool = False,
    ):
        """Run one pruning round on a raw root edge, under a span."""
        wrapped = VectorDD(self.package, edge, num_qubits)
        if session is None:
            return approximator.prune(wrapped, final=final).edge
        rounds_before = approximator.rounds
        with session.span("approx.prune", final=final) as span:
            pruned = approximator.prune(wrapped, final=final)
            span.set_attr("pruned", approximator.rounds > rounds_before)
            result = approximator.last_result
            if approximator.rounds > rounds_before and result is not None:
                span.set_attr("removed_edges", result.removed_edges)
                span.set_attr("removed_mass", result.removed_mass)
                span.set_attr("nodes_before", result.nodes_before)
                span.set_attr("nodes_after", result.nodes_after)
        return pruned.edge

    def run_iterated(
        self,
        init: QuantumCircuit,
        iteration: QuantumCircuit,
        repetitions: int,
        initial_state: int = 0,
    ) -> VectorDD:
        """Simulate ``init`` then ``repetitions`` x ``iteration``.

        The iteration sub-circuit is compiled into a single matrix DD once
        and applied by matrix-vector multiplication — the strategy of the
        paper's substrate ([12], [18]) for iterative algorithms such as
        Grover.  Because the *same* operator nodes are reused every round,
        the state's decision diagram stays canonical across hundreds of
        iterations; gate-by-gate application would let floating-point
        noise in the transient states defeat node sharing.
        """
        from ..dd.matrix_dd import circuit_dd

        if self.reorder is not None:
            raise ValueError(
                "reordering is unsupported for iterated simulation: the "
                "compiled iteration operator assumes a fixed qubit order"
            )
        if init.num_qubits != iteration.num_qubits:
            raise ValueError("init and iteration must act on the same register")
        package = self.package
        state = self.run(init, initial_state=initial_state)
        with _telemetry.activate(self.telemetry):
            if self.optimize:
                iteration, _ = optimize_circuit(iteration, tolerance=package.tolerance)
            operator = circuit_dd(package, iteration)
            edge = state.edge
            applied = self._stats.applied_operations
            session = _telemetry.active()
            with _telemetry.span("iterate", repetitions=repetitions):
                for index in range(repetitions):
                    edge = package.mat_vec(operator, edge)
                    applied += iteration.num_operations
                    if session is not None and session.prober.due(index + 1):
                        session.prober.record(
                            session.tracer.clock(),
                            applied,
                            state_nodes=package.node_count(edge),
                            unique_nodes=len(package.unique_table),
                        )
                    if (
                        self.auto_compact_threshold
                        and len(package.unique_table) > self.auto_compact_threshold
                    ):
                        edge, operator = package.compact([edge, operator])
        self._stats.applied_operations = applied
        # Hundreds of operator applications accumulate float drift in the
        # overall norm (each multiplication renormalises structure, not
        # the global factor); restore <psi|psi> = 1 exactly.
        norm_sq = package.norm_squared(edge)
        if abs(norm_sq - 1.0) > 1e-12 and norm_sq > 0.0:
            edge = package.scale(edge, 1.0 / math.sqrt(norm_sq))
        self._stats.final_dd_nodes = package.node_count(edge)
        return VectorDD(package, edge, init.num_qubits)
