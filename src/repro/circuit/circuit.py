"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of instructions over ``num_qubits`` qubits.
It offers a fluent builder API (``circuit.h(0).cx(0, 1)``), structural
queries (depth, gate counts), and whole-circuit transformations (inverse,
composition, control).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import CircuitError
from . import gates as g
from .operations import Barrier, BaseOperation, DiagonalOperation, Measurement, Operation

__all__ = ["QuantumCircuit", "circuit_has_mid_circuit_measurement"]


class QuantumCircuit:
    """An ordered sequence of quantum instructions on a qubit register.

    Qubit ``n - 1`` is the most significant qubit of measured bitstrings,
    matching the state-vector decomposition used by the decision diagrams.
    """

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: List[object] = []

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[object]:
        return iter(self._instructions)

    def __getitem__(self, index):
        return self._instructions[index]

    @property
    def instructions(self) -> Sequence[object]:
        """Every instruction — operations, measurements, barriers — in order."""
        return tuple(self._instructions)

    @property
    def operations(self) -> List[BaseOperation]:
        """Only the unitary operations, in order.

        Includes both plain gate applications and coalesced
        :class:`~repro.circuit.operations.DiagonalOperation` blocks.
        """
        return [op for op in self._instructions if isinstance(op, BaseOperation)]

    # ------------------------------------------------------------------
    # Low-level append
    # ------------------------------------------------------------------

    def _check_qubits(self, qubits: Iterable[int]) -> None:
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for a {self.num_qubits}-qubit circuit"
                )

    def append(self, instruction) -> "QuantumCircuit":
        """Append a pre-built instruction, validating qubit indices."""
        if isinstance(instruction, BaseOperation):
            self._check_qubits(instruction.qubits)
        elif isinstance(instruction, (Measurement, Barrier)):
            self._check_qubits(instruction.qubits)
        else:
            raise CircuitError(f"cannot append {type(instruction).__name__}")
        self._instructions.append(instruction)
        return self

    def apply(
        self,
        gate: g.Gate,
        targets: Union[int, Sequence[int]],
        controls: Iterable[int] = (),
        neg_controls: Iterable[int] = (),
    ) -> "QuantumCircuit":
        """Append ``gate`` on ``targets`` with optional (anti-)controls."""
        if isinstance(targets, int):
            targets = (targets,)
        op = Operation(
            gate=gate,
            targets=tuple(targets),
            controls=frozenset(controls),
            neg_controls=frozenset(neg_controls),
        )
        return self.append(op)

    # ------------------------------------------------------------------
    # Fluent single-qubit builders
    # ------------------------------------------------------------------

    def i(self, qubit: int) -> "QuantumCircuit":
        """Append an identity gate on ``qubit``."""
        return self.apply(g.identity_gate(), qubit)

    def x(self, qubit: int) -> "QuantumCircuit":
        """Append a Pauli-X (NOT) gate on ``qubit``."""
        return self.apply(g.x_gate(), qubit)

    def y(self, qubit: int) -> "QuantumCircuit":
        """Append a Pauli-Y gate on ``qubit``."""
        return self.apply(g.y_gate(), qubit)

    def z(self, qubit: int) -> "QuantumCircuit":
        """Append a Pauli-Z gate on ``qubit``."""
        return self.apply(g.z_gate(), qubit)

    def h(self, qubit: int) -> "QuantumCircuit":
        """Append a Hadamard gate on ``qubit``."""
        return self.apply(g.h_gate(), qubit)

    def s(self, qubit: int) -> "QuantumCircuit":
        """Append an S (sqrt-Z phase) gate on ``qubit``."""
        return self.apply(g.s_gate(), qubit)

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """Append an S-dagger gate on ``qubit``."""
        return self.apply(g.sdg_gate(), qubit)

    def t(self, qubit: int) -> "QuantumCircuit":
        """Append a T (pi/8 phase) gate on ``qubit``."""
        return self.apply(g.t_gate(), qubit)

    def tdg(self, qubit: int) -> "QuantumCircuit":
        """Append a T-dagger gate on ``qubit``."""
        return self.apply(g.tdg_gate(), qubit)

    def sx(self, qubit: int) -> "QuantumCircuit":
        """Append a sqrt-X gate on ``qubit``."""
        return self.apply(g.sx_gate(), qubit)

    def sy(self, qubit: int) -> "QuantumCircuit":
        """Append a sqrt-Y gate on ``qubit``."""
        return self.apply(g.sy_gate(), qubit)

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append an X-rotation by ``theta`` on ``qubit``."""
        return self.apply(g.rx_gate(theta), qubit)

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append a Y-rotation by ``theta`` on ``qubit``."""
        return self.apply(g.ry_gate(theta), qubit)

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append a Z-rotation by ``theta`` on ``qubit``."""
        return self.apply(g.rz_gate(theta), qubit)

    def p(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append a phase gate diag(1, e^{i theta}) on ``qubit``."""
        return self.apply(g.phase_gate(theta), qubit)

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Append the general single-qubit unitary U3(theta, phi, lambda)."""
        return self.apply(g.u3_gate(theta, phi, lam), qubit)

    # ------------------------------------------------------------------
    # Controlled / multi-qubit builders
    # ------------------------------------------------------------------

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-NOT (CNOT)."""
        return self.apply(g.x_gate(), target, controls=(control,))

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Y."""
        return self.apply(g.y_gate(), target, controls=(control,))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z (the supremacy-circuit entangler)."""
        return self.apply(g.z_gate(), target, controls=(control,))

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Hadamard."""
        return self.apply(g.h_gate(), target, controls=(control,))

    def cp(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled phase (the QFT entangler)."""
        return self.apply(g.phase_gate(theta), target, controls=(control,))

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled X-rotation by ``theta``."""
        return self.apply(g.rx_gate(theta), target, controls=(control,))

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled Y-rotation by ``theta``."""
        return self.apply(g.ry_gate(theta), target, controls=(control,))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled Z-rotation by ``theta``."""
        return self.apply(g.rz_gate(theta), target, controls=(control,))

    def ccx(self, control1: int, control2: int, target: int) -> "QuantumCircuit":
        """Toffoli."""
        return self.apply(g.x_gate(), target, controls=(control1, control2))

    def mcx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled X."""
        return self.apply(g.x_gate(), target, controls=tuple(controls))

    def mcz(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled Z (Grover's oracle/diffusion workhorse)."""
        return self.apply(g.z_gate(), target, controls=tuple(controls))

    def mcp(self, theta: float, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled phase."""
        return self.apply(g.phase_gate(theta), target, controls=tuple(controls))

    def swap(self, qubit1: int, qubit2: int) -> "QuantumCircuit":
        """Exchange two qubits."""
        return self.apply(g.swap_gate(), (qubit1, qubit2))

    def cswap(self, control: int, qubit1: int, qubit2: int) -> "QuantumCircuit":
        """Fredkin gate."""
        return self.apply(g.swap_gate(), (qubit1, qubit2), controls=(control,))

    def iswap(self, qubit1: int, qubit2: int) -> "QuantumCircuit":
        """iSWAP: exchange two qubits with an i phase on |01>/|10>."""
        return self.apply(g.iswap_gate(), (qubit1, qubit2))

    def rzz(self, theta: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        """Two-qubit ZZ interaction by ``theta`` (diagonal)."""
        return self.apply(g.rzz_gate(theta), (qubit1, qubit2))

    def rxx(self, theta: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        """Two-qubit XX interaction by ``theta``."""
        return self.apply(g.rxx_gate(theta), (qubit1, qubit2))

    def ryy(self, theta: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        """Two-qubit YY interaction by ``theta``."""
        return self.apply(g.ryy_gate(theta), (qubit1, qubit2))

    def fsim(self, theta: float, phi: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        """Google fSim(theta, phi) gate (supremacy-circuit entangler)."""
        return self.apply(g.fsim_gate(theta, phi), (qubit1, qubit2))

    # ------------------------------------------------------------------
    # Non-unitary instructions
    # ------------------------------------------------------------------

    def measure_all(self) -> "QuantumCircuit":
        """Measure the full register (the weak-simulation endpoint)."""
        return self.append(Measurement())

    def measure(self, *qubits: int) -> "QuantumCircuit":
        """Measure the listed qubits (mid-circuit when gates follow)."""
        return self.append(Measurement(qubits=tuple(qubits)))

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Append a no-op barrier (an optimization fence)."""
        return self.append(Barrier(qubits=tuple(qubits)))

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def count_gates(self) -> dict:
        """Histogram of gate names (controlled gates prefixed with ``c``)."""
        counts: dict = {}
        for op in self.operations:
            if isinstance(op, DiagonalOperation):
                counts["diag"] = counts.get("diag", 0) + 1
                continue
            name = op.gate.name
            total_controls = len(op.controls) + len(op.neg_controls)
            if total_controls:
                name = "c" * min(total_controls, 2) + name
                if total_controls > 2:
                    name = f"mc{op.gate.name}"
            counts[name] = counts.get(name, 0) + 1
        return counts

    @property
    def num_operations(self) -> int:
        """Number of unitary operations (measurements/barriers excluded)."""
        return len(self.operations)

    def depth(self) -> int:
        """Circuit depth counting unitary operations on overlapping qubits."""
        levels = [0] * self.num_qubits
        depth = 0
        for op in self.operations:
            qubits = op.qubits
            if not qubits:  # pure global-phase block
                continue
            level = max(levels[q] for q in qubits) + 1
            for q in qubits:
                levels[q] = level
            depth = max(depth, level)
        return depth

    def two_qubit_gate_count(self) -> int:
        """Number of operations touching two or more qubits."""
        return sum(1 for op in self.operations if len(op.qubits) >= 2)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Shallow copy: new instruction list, shared immutable operations."""
        clone = QuantumCircuit(self.num_qubits, name or self.name)
        clone._instructions = list(self._instructions)
        return clone

    def inverse(self) -> "QuantumCircuit":
        """Adjoint circuit; measurements and barriers are dropped."""
        inv = QuantumCircuit(self.num_qubits, f"{self.name}_dg")
        for op in reversed(self.operations):
            inv.append(op.inverse())
        return inv

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append all instructions of ``other`` (must fit this register)."""
        if other.num_qubits > self.num_qubits:
            raise CircuitError(
                f"cannot compose a {other.num_qubits}-qubit circuit into "
                f"{self.num_qubits} qubits"
            )
        for instruction in other:
            self.append(instruction)
        return self

    def controlled(self, control: int) -> "QuantumCircuit":
        """Return this circuit with every operation controlled on ``control``.

        The control qubit index refers to the *enlarged* register of
        ``num_qubits + 1`` qubits; existing qubits keep their indices.
        """
        result = QuantumCircuit(self.num_qubits + 1, f"c-{self.name}")
        if not 0 <= control <= self.num_qubits:
            raise CircuitError(f"control {control} outside enlarged register")
        if control < self.num_qubits:
            raise CircuitError(
                "control must be the new qubit (index num_qubits) to avoid "
                "clashing with existing qubits"
            )
        for op in self.operations:
            if isinstance(op, DiagonalOperation):
                # Controlling a product of subspace phases controls each
                # term: the block fires only when the control is |1⟩.
                from .operations import PhaseTerm

                result.append(
                    DiagonalOperation(
                        terms=tuple(
                            PhaseTerm(
                                ones=t.ones | {control},
                                zeros=t.zeros,
                                angle=t.angle,
                            )
                            for t in op.terms
                        )
                    )
                )
                continue
            result.append(
                Operation(
                    gate=op.gate,
                    targets=op.targets,
                    controls=op.controls | {control},
                    neg_controls=op.neg_controls,
                )
            )
        return result

    def unitary(self) -> np.ndarray:
        """Dense unitary of the whole circuit (verification-sized only)."""
        if self.num_qubits > 12:
            raise CircuitError(
                "refusing to build a dense unitary beyond 12 qubits"
            )
        dim = 2**self.num_qubits
        matrix = np.eye(dim, dtype=np.complex128)
        for op in self.operations:
            matrix = op.full_matrix(self.num_qubits) @ matrix
        return matrix

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"{self.name}: {self.num_qubits} qubits, {len(self)} instructions"]
        for instruction in self._instructions[:50]:
            lines.append(f"  {instruction}")
        if len(self._instructions) > 50:
            lines.append(f"  ... {len(self._instructions) - 50} more")
        return "\n".join(lines)


def circuit_has_mid_circuit_measurement(circuit: QuantumCircuit) -> bool:
    """Whether any measurement is followed by a unitary instruction.

    The routing predicate: :meth:`BuildSpec.route
    <repro.simulators.build_spec.BuildSpec.route>` sends such a circuit
    to :class:`~repro.core.shot_executor.ShotExecutor` (or, with noise,
    to the density path, which dephases at the measurement) instead of
    sampling its final state.  One pass over the instruction list, no
    compilation.  Barriers are ignored (they fence the optimizer, not
    execution) and trailing measurements do not count.
    """
    seen_measurement = False
    for instruction in circuit:
        if isinstance(instruction, Measurement):
            seen_measurement = True
        elif seen_measurement and not isinstance(instruction, Barrier):
            return True
    return False
