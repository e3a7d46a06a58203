"""Common interface for strong simulators.

A strong simulator consumes a circuit and produces a representation of the
final quantum state (dense array or decision diagram).  Weak simulation
(:mod:`repro.core`) then samples from that representation — the two-stage
flow of the paper's Fig. 2.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..circuit.circuit import QuantumCircuit

__all__ = ["StrongSimulator", "SimulationStats"]


@dataclass
class SimulationStats:
    """Bookkeeping collected during one strong-simulation run."""

    num_qubits: int = 0
    applied_operations: int = 0
    peak_dd_nodes: int = 0
    final_dd_nodes: int = 0
    strategy_counts: Dict[str, int] = field(default_factory=dict)
    #: Subspace-phase traversals performed inside coalesced diagonal
    #: blocks (each block counts once in ``strategy_counts["diagonal"]``).
    diagonal_term_applications: int = 0
    #: Rewrite counters from the compile pipeline (empty when the run
    #: was not optimised); see :meth:`repro.compile.CompileStats.to_dict`.
    compile_stats: Dict = field(default_factory=dict)
    #: Which engine executed the run: ``"vector"`` (the SoA kernel,
    #: :mod:`repro.perf.kernel`) or ``"python"`` (the reference per-node
    #: recursion) for a DD build, ``"density"`` for a density-matrix
    #: build, ``None`` for a dense statevector build.
    kernel: Optional[str] = None
    #: Edge⇄SoA round trips through the python engine for operations the
    #: kernel does not cover (zero on python runs).
    kernel_fallbacks: int = 0
    #: SoA rows rebuilt by kernel gate application (zero on python runs).
    kernel_levels: int = 0
    #: Approximation accounting (all zero / ``None`` on exact runs); see
    #: :mod:`repro.dd.approximation`.  ``fidelity_bound`` is the rigorous
    #: lower bound on the fidelity of the final approximated state.
    approx_rounds: int = 0
    approx_removed_edges: int = 0
    approx_removed_mass: float = 0.0
    fidelity_bound: Optional[float] = None
    #: Reordering accounting (all zero / ``None`` on fixed-order runs);
    #: see :mod:`repro.dd.reorder`.  ``level_to_qubit[l]`` is the
    #: original circuit qubit occupying DD level ``l`` at the end of the
    #: build — samples drawn from the DD are in level space and must be
    #: unpermuted through it before being reported.
    reorder_rounds: int = 0
    reorder_swaps: int = 0
    reorder_swaps_kept: int = 0
    level_to_qubit: Optional[Tuple[int, ...]] = None
    #: Noise accounting (all zero on noiseless runs); see
    #: :mod:`repro.noise` and :class:`repro.simulators.DensityMatrixSimulator`.
    #: ``noise_channel_applications`` counts single-qubit channel
    #: applications (including measurement dephasing);
    #: ``noise_kraus_applications`` counts the Kraus operators folded
    #: into the superoperators those applications used.
    noise_channel_applications: int = 0
    noise_kraus_applications: int = 0


class StrongSimulator(abc.ABC):
    """Base class for circuit-to-state simulators."""

    @abc.abstractmethod
    def run(self, circuit: QuantumCircuit, initial_state: int = 0):
        """Simulate ``circuit`` from basis state ``initial_state``.

        Returns the backend-specific state representation (a NumPy array
        for the dense simulator, a :class:`~repro.dd.vector_dd.VectorDD`
        for the DD simulator).
        """

    @property
    @abc.abstractmethod
    def stats(self) -> SimulationStats:
        """Statistics from the most recent :meth:`run`."""
