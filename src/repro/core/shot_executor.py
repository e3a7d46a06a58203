"""Execution of circuits with mid-circuit measurement.

The samplers in this package assume all measurements sit at the end of
the circuit (the weak-simulation setting of the paper).  Real programs
sometimes measure *during* the computation and keep evolving the
collapsed state.  :class:`ShotExecutor` handles that general case:

* the circuit is split into unitary segments at measurement boundaries,
* the state up to the first measurement is simulated **once** (it is
  shot-independent),
* the shot count is **binomially split** at every measured qubit — the
  two collapsed branches each continue with their share of the shots —
  so DD work scales with the number of *distinct measurement-outcome
  prefixes* instead of ``shots × segments``.  The joint distribution of
  the resulting counts equals that of independent per-shot runs (the
  same argument as multinomial shot splitting in the sampler).

:meth:`ShotExecutor.run_per_shot` keeps the literal one-shot-at-a-time
loop as the statistical reference the branching path is tested against.
When the circuit has no mid-circuit measurement, the executor simply
defers to the fast samplers (one strong simulation, then batch
sampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry as _telemetry
from ..circuit.circuit import QuantumCircuit, circuit_has_mid_circuit_measurement
from ..circuit.operations import Barrier, Measurement, Operation
from ..dd.apply import GateApplier
from ..dd.measure import MIN_COLLAPSE_PROBABILITY, collapse, qubit_probability
from ..dd.node import Edge
from ..dd.normalization import NormalizationScheme
from ..dd.package import DDPackage
from ..exceptions import SimulationError
from .dd_sampler import DDSampler
from ..dd.vector_dd import VectorDD
from ..perf.kernel import select_engine
from .results import SampleResult

__all__ = ["ShotExecutor"]


def _as_rng(seed: Union[int, np.random.Generator, None]) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass
class _Segment:
    """A run of unitary operations followed by one measurement (or end)."""

    operations: List[Operation]
    measurement: Optional[Measurement]


class ShotExecutor:
    """Executes measure-and-continue circuits shot by shot.

    Every shot starts from ``|initial_state⟩``; the compile pipeline is
    an exact unitary rewrite, so optimizing first holds for any input
    state.  A shot's record holds each qubit's last measured value, and
    qubits never measured read 0.

    The unitary segments run on the engine
    :func:`~repro.perf.kernel.select_engine` picks, as a
    :class:`~repro.simulators.dd_simulator.DDSimulator` build does:
    the SoA kernel under either scheme, or the python reference with
    ``kernel="python"``.  Collapse needs the edge form, so on the kernel
    every segment ending in a mid-circuit measurement is a forced round
    trip, counted as ``kernel_measurement_fallbacks``.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        scheme: NormalizationScheme = NormalizationScheme.L2,
        optimize: bool = True,
        telemetry: Optional["_telemetry.Telemetry"] = None,
        kernel: str = "auto",
        initial_state: int = 0,
    ):
        self._engine = select_engine(kernel)
        #: Optional telemetry session activated around every run (the
        #: branching counters below are absorbed into its registry).
        self.telemetry = telemetry
        self.compile_stats: dict = {}
        with _telemetry.activate(telemetry):
            if optimize:
                from ..compile import optimize_circuit

                # Measurements fence every rewrite pass, so optimising the
                # whole circuit up front is safe for mid-circuit measurement.
                circuit, rewrite = optimize_circuit(circuit)
                self.compile_stats = rewrite.to_dict()
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        self.initial_state = initial_state
        #: Whether a measurement of the (optimized) circuit is followed
        #: by further gates; when not, :meth:`run` samples the end state.
        self.has_mid_circuit_measurement = circuit_has_mid_circuit_measurement(
            circuit
        )
        self.package = DDPackage(scheme=scheme)
        self._applier = GateApplier(self.package, self.num_qubits)
        self._segments = self._split(circuit)
        #: Branching diagnostics for the most recent run: outcome
        #: branches explored, collapse operations, binomial splits,
        #: segments executed (``Registry.snapshot()`` exposes these as
        #: ``shots.*`` counters when telemetry is active).
        self.stats: Dict[str, int] = self._fresh_stats()
        #: The shot-independent state after the first unitary segment.
        self._prefix_state: Optional[Edge] = None

    @staticmethod
    def _fresh_stats() -> Dict[str, int]:
        """Zeroed branching counters for one run."""
        return {
            "branches": 0,
            "collapses": 0,
            "binomial_splits": 0,
            "segments_run": 0,
            "terminal_fast_path": 0,
            "kernel_segments": 0,
            "kernel_measurement_fallbacks": 0,
        }

    @staticmethod
    def _split(circuit: QuantumCircuit) -> List[_Segment]:
        segments: List[_Segment] = []
        pending: List[Operation] = []
        for instruction in circuit:
            if isinstance(instruction, Barrier):
                continue
            if isinstance(instruction, Measurement):
                segments.append(_Segment(pending, instruction))
                pending = []
            else:
                pending.append(instruction)
        segments.append(_Segment(pending, None))
        return segments

    def _run_segment(self, state: Edge, segment: _Segment) -> Edge:
        """One unitary segment: load → apply* → to_edge on the engine."""
        self.stats["segments_run"] += 1
        if not segment.operations or state.weight == 0:
            return state
        engine = self._engine(self.package, self.num_qubits, self._applier)
        engine.load(state)
        for op in segment.operations:
            engine.apply(op)
        if engine.name == "vector":
            self.stats["kernel_segments"] += 1
            if segment.measurement is not None and self.has_mid_circuit_measurement:
                self.stats["kernel_measurement_fallbacks"] += 1
                session = _telemetry.active()
                if session is not None:
                    session.registry.counter("kernel.fallbacks").inc()
        return engine.to_edge()

    def _prefix(self) -> Edge:
        if self._prefix_state is None:
            state = self.package.basis_state(self.num_qubits, self.initial_state)
            self._prefix_state = self._run_segment(state, self._segments[0])
        return self._prefix_state

    def _measure_qubits(
        self, state: Edge, qubits: Sequence[int], rng: np.random.Generator
    ) -> Tuple[Edge, int]:
        """Sample and collapse the given qubits; returns (state, bits).

        ``bits`` has the measured values in the qubits' register
        positions; unmeasured positions are zero.
        """
        outcome_bits = 0
        for qubit in sorted(qubits, reverse=True):
            p_one = qubit_probability(state, qubit, self.num_qubits)
            if math.isnan(p_one):
                raise SimulationError(
                    "measurement probability is NaN; the simulated state "
                    "is corrupted"
                )
            # Clamp numerically-certain outcomes so the draw can never
            # land on a branch collapse() rejects as impossible.
            if p_one <= MIN_COLLAPSE_PROBABILITY:
                outcome = 0
            elif p_one >= 1.0 - MIN_COLLAPSE_PROBABILITY:
                outcome = 1
            else:
                outcome = 1 if rng.random() < p_one else 0
            probability = p_one if outcome else 1.0 - p_one
            state = collapse(
                self.package, state, qubit, outcome, self.num_qubits, probability
            )
            self.stats["collapses"] += 1
            outcome_bits |= outcome << qubit
        return state, outcome_bits

    def _measured_qubits(self, segment: _Segment) -> Tuple[int, ...]:
        """The qubits a segment's measurement reads (all when unspecified)."""
        assert segment.measurement is not None
        return segment.measurement.qubits or tuple(range(self.num_qubits))

    @staticmethod
    def _binomial_split(
        pending: int, p_one: float, rng: np.random.Generator
    ) -> int:
        """Shots (out of ``pending``) assigned to the outcome-1 branch.

        Probabilities within :data:`~repro.dd.measure.MIN_COLLAPSE_PROBABILITY`
        of 0 or 1 are treated as certain, so no shots are ever routed onto a
        branch :func:`~repro.dd.measure.collapse` would reject as
        numerically impossible.  A NaN probability (a corrupted state)
        raises :class:`~repro.exceptions.SimulationError` instead of
        leaking ``numpy``'s ``ValueError`` out of ``rng.binomial``.
        """
        if math.isnan(p_one):
            raise SimulationError(
                "measurement probability is NaN; the simulated state is "
                "corrupted (likely a collapse on a near-zero branch)"
            )
        if p_one <= MIN_COLLAPSE_PROBABILITY:
            return 0
        if p_one >= 1.0 - MIN_COLLAPSE_PROBABILITY:
            return pending
        return int(rng.binomial(pending, p_one))

    def run(
        self,
        shots: int,
        seed: Union[int, np.random.Generator, None] = None,
    ) -> SampleResult:
        """Execute ``shots`` runs; returns accumulated measured bits.

        Shots split binomially at each measurement (outcome branching);
        :meth:`run_per_shot` is the literal one-shot-at-a-time reference.
        Each shot's record is the OR of all measurement outcomes at their
        register positions (re-measured qubits keep the latest value, as
        on hardware with a single classical bit per qubit).
        """
        if shots < 0:
            raise SimulationError("shots must be non-negative")
        rng = _as_rng(seed)
        with _telemetry.activate(self.telemetry):
            self.stats = self._fresh_stats()
            if shots == 0:
                return self._empty_result()
            if not self.has_mid_circuit_measurement:
                return self._run_terminal_only(shots, rng)
            with _telemetry.span("shots.run", strategy="branching", shots=shots):
                result = self._run_branching(shots, rng)
            self._record_shot_stats()
            return result

    def _empty_result(self) -> SampleResult:
        """A well-formed zero-shot result; skips simulation entirely."""
        self._record_shot_stats()
        return SampleResult(
            num_qubits=self.num_qubits, counts={}, method="shot-executor"
        )

    def _run_branching(self, shots: int, rng: np.random.Generator) -> SampleResult:
        """The outcome-branching strategy body (see :meth:`run`)."""
        counts: Dict[int, int] = {}
        # Work items: (segment index, state with that segment's unitaries
        # already applied, record so far, shots on this branch).
        # Depth-first with an explicit stack: branch count — not shots,
        # not recursion depth — bounds the memory.
        stack = [(0, self._prefix(), 0, shots)]
        while stack:
            index, state, record, pending = stack.pop()
            if pending == 0:
                continue
            segment = self._segments[index]
            if segment.measurement is None:
                # Final segment: its unitaries were applied on push.
                counts[record] = counts.get(record, 0) + pending
                continue
            qubits = self._measured_qubits(segment)
            mask = 0
            for qubit in qubits:
                mask |= 1 << qubit
            # Split the pending shots over the joint outcomes of this
            # measurement, collapsing each surviving branch exactly once.
            branches = [(state, 0, pending)]
            for qubit in sorted(qubits, reverse=True):
                split: List[Tuple[Edge, int, int]] = []
                for branch_state, bits, branch_shots in branches:
                    p_one = qubit_probability(
                        branch_state, qubit, self.num_qubits
                    )
                    ones = self._binomial_split(branch_shots, p_one, rng)
                    self.stats["binomial_splits"] += 1
                    for outcome, share in ((0, branch_shots - ones), (1, ones)):
                        if share == 0:
                            continue
                        probability = p_one if outcome else 1.0 - p_one
                        collapsed = collapse(
                            self.package,
                            branch_state,
                            qubit,
                            outcome,
                            self.num_qubits,
                            probability,
                        )
                        self.stats["collapses"] += 1
                        split.append(
                            (collapsed, bits | (outcome << qubit), share)
                        )
                branches = split
            for branch_state, bits, branch_shots in branches:
                self.stats["branches"] += 1
                next_state = self._run_segment(
                    branch_state, self._segments[index + 1]
                )
                stack.append(
                    (index + 1, next_state, (record & ~mask) | bits, branch_shots)
                )
        return SampleResult(
            num_qubits=self.num_qubits, counts=counts, method="shot-executor"
        )

    def _record_shot_stats(self) -> None:
        """Absorb the branching counters into the active registry, if any."""
        session = _telemetry.active()
        if session is not None:
            session.registry.record_shots(self.stats)

    def run_per_shot(
        self,
        shots: int,
        seed: Union[int, np.random.Generator, None] = None,
    ) -> SampleResult:
        """The literal per-shot loop — one full collapse sequence per shot.

        O(shots × segments) DD work; kept as the statistical reference
        the branching strategy is validated against, and as the slow
        baseline in the compiled-engine benchmark.
        """
        if shots < 0:
            raise SimulationError("shots must be non-negative")
        rng = _as_rng(seed)
        with _telemetry.activate(self.telemetry):
            self.stats = self._fresh_stats()
            if shots == 0:
                return self._empty_result()
            if not self.has_mid_circuit_measurement:
                return self._run_terminal_only(shots, rng)
            counts: Dict[int, int] = {}
            prefix = self._prefix()
            for _ in range(shots):
                state = prefix
                record = 0
                for index, segment in enumerate(self._segments):
                    if index > 0:
                        state = self._run_segment(state, segment)
                    if segment.measurement is None:
                        continue
                    qubits = self._measured_qubits(segment)
                    mask = 0
                    for qubit in qubits:
                        mask |= 1 << qubit
                    state, bits = self._measure_qubits(state, qubits, rng)
                    record = (record & ~mask) | bits
                counts[record] = counts.get(record, 0) + 1
            self._record_shot_stats()
        return SampleResult(
            num_qubits=self.num_qubits, counts=counts, method="shot-executor"
        )

    def _run_terminal_only(
        self, shots: int, rng: np.random.Generator
    ) -> SampleResult:
        """Fast path: no measure-and-continue — batch-sample the end state."""
        self.stats["terminal_fast_path"] += 1
        state = self._prefix()
        for segment in self._segments[1:]:
            state = self._run_segment(state, segment)
        measured: Optional[Tuple[int, ...]] = None
        for segment in self._segments:
            if segment.measurement is not None:
                qubits = self._measured_qubits(segment)
                measured = tuple(sorted(set(qubits) | set(measured or ())))
        sampler = DDSampler(VectorDD(self.package, state, self.num_qubits))
        samples = sampler.sample(shots, rng)
        if measured is not None and len(measured) < self.num_qubits:
            mask = 0
            for qubit in measured:
                mask |= 1 << qubit
            samples = samples & mask
        result = SampleResult.from_samples(
            self.num_qubits, samples, method="shot-executor"
        )
        self._record_shot_stats()
        return result
