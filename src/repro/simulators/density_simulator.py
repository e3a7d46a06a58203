"""Strong simulation into a density-matrix decision diagram.

The noisy sibling of :class:`~repro.simulators.dd_simulator.DDSimulator`:
gates conjugate the state (``U rho U†``), and after every gate the
configured :class:`~repro.noise.NoiseModel` channels are applied to each
qubit the gate touched, each as one 4×4 superoperator at that qubit's
level (:func:`~repro.dd.density.apply_local_map`).  Mid-circuit
measurements become non-selective dephasing (measure-and-forget), which
is exactly their effect on the ensemble state.  The result is a
:class:`~repro.dd.density.DensityMatrixDD` whose diagonal feeds the
compiled sampling path (:func:`compile_noisy_sampler`).

Two deliberate contract differences from the pure-state simulator:

* **The compile pipeline is bypassed.**  Gate-attached noise binds to
  the circuit *as written* — fusing or cancelling gates would move the
  noise locations and change the physics — so the optimizer's
  equivalence guarantee does not carry over and it is not run.
* **Python engine only.**  Superoperator application needs the edge
  representation (two matrix products per gate, a per-level walk per
  channel); the SoA vector kernel does not apply.  Mixed-state DDs can
  approach the square of the pure-state DD size, so this path is priced
  accordingly (see ``docs/noise.md``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import telemetry as _telemetry
from ..circuit.circuit import QuantumCircuit
from ..circuit.operations import Barrier, DiagonalOperation, Measurement
from ..dd.density import (
    DensityMatrixDD,
    apply_local_map,
    apply_superoperator,
    matrix_adjoint,
)
from ..dd.matrix_dd import OperationDDCache
from ..dd.node import Edge
from ..dd.package import DDPackage
from ..noise.channels import dephasing
from ..noise.model import NoiseModel
from ..perf.compiled_dd import CompiledDD, compile_probability_edge
from .base import SimulationStats, StrongSimulator
from .build_spec import BuildSpec

__all__ = [
    "DENSITY_RELATIVE_TOLERANCE",
    "DENSITY_TOLERANCE",
    "DensityMatrixSimulator",
    "compile_noisy_sampler",
]

#: Cadence (applied gates) for the build-time ``node_limit`` guard.
#: Unlike the pure path's every-25-gates cadence, density builds check
#: after *every* gate: a mixed-state gate application costs two matrix
#: multiplies plus a per-level walk per channel — far more than the
#: O(nodes) count probe — and short circuits (a 20-qubit GHZ ladder is
#: ~21 gates) would otherwise never hit a sparser check before the
#: runaway build finishes or exhausts the machine.
NODE_LIMIT_CHECK_INTERVAL = 1

#: Weight-interning tolerance for the default density package — tighter
#: than the vector path's ``DEFAULT_TOLERANCE`` (1e-10).  A density
#: matrix squares the dynamic range of the underlying amplitudes, so
#: left-most normalisation routinely tops an edge with a coherence-scale
#: weight (|w| ~ 1e-8 for a 1e-8-scale rotation).  At that magnitude the
#: complex table's *absolute* snap window is a multi-percent *relative*
#: error, and the snapped top weight multiplies the O(1) normalised
#: subtree below it — the differential fuzzer's nearzero family turned a
#: 1e-10 snap into a 1e-2 trace error.  1e-14 keeps the snap relative
#: error below 1e-5 even for 1e-9-scale weights at the cost of ~15% more
#: nodes on mixed-state builds.
DENSITY_TOLERANCE = 1e-14

#: Relative interning guard for the default density package.  The
#: absolute window alone is not enough: a 1e-10-scale rotation tops an
#: edge with a ~5e-11 weight, and snapping *that* within a 1e-14
#: absolute window is still a ~2e-4 relative perturbation which the
#: normalised O(1) subtree below it amplifies into an O(1e-3)
#: distribution error (and a visibly non-unit trace).  With the relative
#: guard, nonzero weights only unify when they agree to ~1e-12 of their
#: own magnitude — same-value-different-route weights (equal to ~1e-16
#: relative) still intern, so node sharing is preserved, while snaps can
#: no longer move any weight by more than 1e-12 of itself.  Truly tiny
#: weights (under the absolute window) still snap to exact zero, which
#: drops the branch rather than rescaling it.
DENSITY_RELATIVE_TOLERANCE = 1e-12


class DensityMatrixSimulator(StrongSimulator):
    """Density-matrix strong simulator with per-gate Kraus noise.

    ``noise`` accepts anything :meth:`repro.noise.NoiseModel.from_value`
    does; a disabled model (all strengths zero) is normalised to ``None``
    and the run is exact (but still in density form — use
    :class:`~repro.simulators.dd_simulator.DDSimulator` for exact *pure*
    simulation, which is strictly cheaper).  ``node_limit`` raises
    :class:`MemoryError` mid-build when the density DD outgrows it, the
    same degradation hook the BuildScheduler uses for the pure path.
    """

    def __init__(
        self,
        noise: Optional[NoiseModel] = None,
        package: Optional[DDPackage] = None,
        track_peak: bool = False,
        auto_compact_threshold: int = 400_000,
        telemetry: Optional["_telemetry.Telemetry"] = None,
        node_limit: Optional[int] = None,
    ):
        noise = BuildSpec.of(noise=noise).noise
        if node_limit is not None and node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {node_limit}")
        self.noise = noise
        self.package = (
            package
            if package is not None
            else DDPackage(
                tolerance=DENSITY_TOLERANCE,
                relative_tolerance=DENSITY_RELATIVE_TOLERANCE,
            )
        )
        self.track_peak = track_peak
        self.auto_compact_threshold = auto_compact_threshold
        self.telemetry = telemetry
        self.node_limit = node_limit
        self._stats = SimulationStats()

    @property
    def stats(self) -> SimulationStats:
        """Statistics from the most recent :meth:`run`."""
        return self._stats

    def run(
        self, circuit: QuantumCircuit, initial_state: int = 0
    ) -> DensityMatrixDD:
        """Evolve ``|initial_state⟩⟨initial_state|`` through ``circuit``."""
        with _telemetry.activate(self.telemetry):
            return self._run_traced(circuit, initial_state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply_channels(self, rho: Edge, channels, qubits, session) -> Edge:
        """Apply each channel to each qubit, with telemetry accounting."""
        for channel in channels:
            superoperator = channel.superoperator
            for qubit in qubits:
                if session is not None:
                    with session.span(
                        "noise.channel", channel=channel.name, qubit=qubit
                    ):
                        rho = apply_local_map(
                            self.package, rho, qubit, superoperator
                        )
                else:
                    rho = apply_local_map(self.package, rho, qubit, superoperator)
                self._stats.noise_channel_applications += 1
                self._stats.noise_kraus_applications += len(channel)
        return rho

    def _run_traced(
        self, circuit: QuantumCircuit, initial_state: int
    ) -> DensityMatrixDD:
        package = self.package
        num_qubits = circuit.num_qubits
        rho = DensityMatrixDD.basis_state(
            package, num_qubits, initial_state
        ).edge
        self._stats = SimulationStats(num_qubits=num_qubits, kernel="density")
        channels = self.noise.gate_channels() if self.noise is not None else ()
        dephase = dephasing()
        op_cache = OperationDDCache(package, num_qubits)
        adjoint_cache: Dict[Tuple[int, complex], Edge] = {}
        peak = package.node_count(rho) if self.track_peak else 0
        session = _telemetry.active()
        build_span = (
            session.span("build", num_qubits=num_qubits, backend="density")
            if session is not None
            else _telemetry.NULL_SPAN
        )
        with build_span:
            for instruction in circuit:
                if isinstance(instruction, Barrier):
                    continue
                if isinstance(instruction, Measurement):
                    measured = (
                        range(num_qubits)
                        if instruction.measures_all
                        else instruction.qubits
                    )
                    rho = self._apply_channels(
                        rho, (dephase,), measured, session
                    )
                    continue
                lowered = (
                    instruction.to_operations()
                    if isinstance(instruction, DiagonalOperation)
                    else (instruction,)
                )
                for op in lowered:
                    operator = op_cache.get(op)
                    adjoint_key = (operator.node.index, operator.weight)
                    adjoint = adjoint_cache.get(adjoint_key)
                    if adjoint is None:
                        adjoint = matrix_adjoint(package, operator)
                        adjoint_cache[adjoint_key] = adjoint
                    if session is not None:
                        with session.span("apply", gate=op.gate.name):
                            rho = apply_superoperator(
                                package, rho, operator, adjoint
                            )
                    else:
                        rho = apply_superoperator(
                            package, rho, operator, adjoint
                        )
                    self._stats.applied_operations += 1
                    rho = self._apply_channels(
                        rho, channels, sorted(op.qubits), session
                    )
                if self.track_peak:
                    peak = max(peak, package.node_count(rho))
                applied = self._stats.applied_operations
                if (
                    self.node_limit is not None
                    and applied % NODE_LIMIT_CHECK_INTERVAL == 0
                    and package.node_count(rho) > self.node_limit
                ):
                    raise MemoryError(
                        f"density DD grew to {package.node_count(rho)} nodes "
                        f"after {applied} gates, over the limit of "
                        f"{self.node_limit}"
                    )
                if session is not None and session.prober.due(applied):
                    session.prober.record(
                        session.tracer.clock(),
                        applied,
                        state_nodes=package.node_count(rho),
                        unique_nodes=len(package.unique_table),
                    )
                if (
                    self.auto_compact_threshold
                    and len(package.unique_table) > self.auto_compact_threshold
                ):
                    rho = package.compact([rho])[0]
                    # Cached operator DDs reference pre-compaction nodes;
                    # rebuild them lazily against the fresh unique table.
                    op_cache = OperationDDCache(package, num_qubits)
                    adjoint_cache.clear()
            self._stats.final_dd_nodes = package.node_count(rho)
            self._stats.peak_dd_nodes = max(peak, self._stats.final_dd_nodes)
            if (
                self.node_limit is not None
                and self._stats.final_dd_nodes > self.node_limit
            ):
                raise MemoryError(
                    f"final density DD has {self._stats.final_dd_nodes} "
                    f"nodes, over the limit of {self.node_limit}"
                )
            if session is not None:
                build_span.set_attr(
                    "applied_operations", self._stats.applied_operations
                )
                build_span.set_attr(
                    "final_dd_nodes", self._stats.final_dd_nodes
                )
                build_span.set_attr(
                    "noise_channel_applications",
                    self._stats.noise_channel_applications,
                )
                session.registry.counter("noise.builds").inc()
                session.registry.counter("noise.channel_applications").inc(
                    self._stats.noise_channel_applications
                )
                session.registry.counter("noise.kraus_applications").inc(
                    self._stats.noise_kraus_applications
                )
                session.registry.record_build(self._stats)
                session.registry.record_dd_tables(package.stats())
        return DensityMatrixDD(package, rho, num_qubits)


def compile_noisy_sampler(
    rho: DensityMatrixDD, noise: Optional[NoiseModel] = None
) -> CompiledDD:
    """Flatten a density matrix into the standard sampling artifact.

    Extracts the diagonal as a probability vector DD, folds in the
    readout confusion matrix (one
    :func:`~repro.dd.density.apply_local_map` per qubit) when the model
    has readout error, and compiles with
    :func:`~repro.perf.compiled_dd.compile_probability_edge`.  The
    result is a bona fide :class:`~repro.perf.compiled_dd.CompiledDD`:
    it serialises, caches, and samples exactly like an exact artifact.
    """
    package = rho.package
    num_qubits = rho.num_qubits
    session = _telemetry.active()
    span = (
        session.span("noise.diagonal", num_qubits=num_qubits)
        if session is not None
        else _telemetry.NULL_SPAN
    )
    with span:
        diagonal = rho.diagonal()
        noise = BuildSpec.of(noise=noise).noise
        if noise is not None and noise.has_readout_error:
            confusion = noise.readout_matrix().astype(complex).tolist()
            for qubit in range(num_qubits):
                diagonal = apply_local_map(package, diagonal, qubit, confusion)
        compiled = compile_probability_edge(diagonal, num_qubits)
        if session is not None:
            span.set_attr("compiled_nodes", compiled.size)
            session.registry.counter("noise.samplers_compiled").inc()
    return compiled
