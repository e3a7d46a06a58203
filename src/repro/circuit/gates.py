"""Standard quantum gate library.

Every gate is described by a :class:`Gate` instance carrying its name, the
number of qubits it acts on, optional real parameters, and its unitary
matrix.  Gates are value objects: two gates compare equal when their names,
parameters, and matrices agree.

The module provides

* constructors for the common fixed gates (``X``, ``Y``, ``Z``, ``H``,
  ``S``, ``SDG``, ``T``, ``TDG``, ``SX``, ``SY``, identity),
* parametrised rotations (``RX``, ``RY``, ``RZ``, ``PHASE``, ``U2``, ``U3``),
* two-qubit primitives (``SWAP``, ``ISWAP``, ``CZ`` / ``CX`` via controls,
  ``RZZ``, ``RXX``, ``RYY``, ``XX_PLUS_YY``),
* a :data:`GATE_REGISTRY` mapping lower-case gate names to constructors,
  used by the OpenQASM parser.

The convention throughout the library is little-endian: qubit ``k``
corresponds to bit ``k`` of a basis-state index, and qubit ``n - 1`` is the
most significant qubit (the first split of the state vector in the decision
diagram, as in the paper).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError

__all__ = [
    "Gate",
    "GATE_REGISTRY",
    "identity_gate",
    "x_gate",
    "y_gate",
    "z_gate",
    "h_gate",
    "s_gate",
    "sdg_gate",
    "t_gate",
    "tdg_gate",
    "sx_gate",
    "sxdg_gate",
    "sy_gate",
    "sydg_gate",
    "rx_gate",
    "ry_gate",
    "rz_gate",
    "phase_gate",
    "gphase_gate",
    "u2_gate",
    "u3_gate",
    "swap_gate",
    "iswap_gate",
    "rzz_gate",
    "rxx_gate",
    "ryy_gate",
    "fsim_gate",
    "is_unitary",
]

_ATOL = 1e-10

#: Entries kept by each ``Gate``-keyed memo (the ``lru_cache`` predicates
#: in :mod:`repro.compile.passes` and :mod:`repro.dd.apply`).  Seeded
#: rotations make most served gates distinct, so an unbounded memo grows
#: with every request a long-lived worker answers; one circuit brings a
#: few dozen distinct gates, far under this bound.
GATE_MEMO_SIZE = 256


def is_unitary(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    """Return ``True`` when ``matrix`` is unitary within ``atol``."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    product = matrix @ matrix.conj().T
    return bool(np.allclose(product, np.eye(matrix.shape[0]), atol=atol))


@dataclass(frozen=True)
class Gate:
    """A unitary gate acting on ``num_qubits`` qubits.

    The matrix is stored in the same little-endian convention as the rest
    of the library: for a two-qubit gate applied to ``(targets[0],
    targets[1])``, row/column index bit 0 corresponds to ``targets[0]``.
    """

    name: str
    num_qubits: int
    matrix: Tuple[Tuple[complex, ...], ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        dim = 2**self.num_qubits
        if len(self.matrix) != dim or any(len(row) != dim for row in self.matrix):
            raise CircuitError(
                f"gate {self.name!r} declares {self.num_qubits} qubits but its "
                f"matrix is not {dim}x{dim}"
            )

    @property
    def array(self) -> np.ndarray:
        """The gate matrix as a fresh ``complex128`` NumPy array."""
        return np.array(self.matrix, dtype=np.complex128)

    def inverse(self) -> "Gate":
        """Return the adjoint gate (matrix conjugate-transposed)."""
        inv = self.array.conj().T
        name = self.name
        if name.endswith("dg"):
            name = name[:-2]
        else:
            name = name + "dg"
        return Gate(
            name=name,
            num_qubits=self.num_qubits,
            matrix=_freeze(inv),
            params=tuple(-p for p in self.params),
        )

    def is_diagonal(self, atol: float = _ATOL) -> bool:
        """Return ``True`` when the gate matrix is diagonal."""
        arr = self.array
        return bool(np.allclose(arr - np.diag(np.diag(arr)), 0.0, atol=atol))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            rendered = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({rendered})"
        return self.name


def _freeze(matrix: np.ndarray) -> Tuple[Tuple[complex, ...], ...]:
    """Convert a NumPy matrix into the hashable nested-tuple form."""
    return tuple(tuple(complex(v) for v in row) for row in matrix)


def _gate(name: str, matrix: Sequence[Sequence[complex]], params: Tuple[float, ...] = ()) -> Gate:
    arr = np.asarray(matrix, dtype=np.complex128)
    num_qubits = int(round(math.log2(arr.shape[0])))
    return Gate(name=name, num_qubits=num_qubits, matrix=_freeze(arr), params=params)


# ---------------------------------------------------------------------------
# Fixed single-qubit gates
# ---------------------------------------------------------------------------

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def identity_gate() -> Gate:
    """The single-qubit identity."""
    return _gate("id", [[1, 0], [0, 1]])


def x_gate() -> Gate:
    """Pauli-X (NOT)."""
    return _gate("x", [[0, 1], [1, 0]])


def y_gate() -> Gate:
    """Pauli-Y."""
    return _gate("y", [[0, -1j], [1j, 0]])


def z_gate() -> Gate:
    """Pauli-Z (phase flip)."""
    return _gate("z", [[1, 0], [0, -1]])


def h_gate() -> Gate:
    """Hadamard."""
    return _gate("h", [[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]])


def s_gate() -> Gate:
    """Phase gate S = sqrt(Z)."""
    return _gate("s", [[1, 0], [0, 1j]])


def sdg_gate() -> Gate:
    """Adjoint of S."""
    return _gate("sdg", [[1, 0], [0, -1j]])


def t_gate() -> Gate:
    """T gate = fourth root of Z."""
    return _gate("t", [[1, 0], [0, cmath.exp(1j * math.pi / 4)]])


def tdg_gate() -> Gate:
    """Adjoint of T."""
    return _gate("tdg", [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]])


def sx_gate() -> Gate:
    """Square root of X (used by the supremacy circuits as X^1/2)."""
    return _gate("sx", [[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])


def sxdg_gate() -> Gate:
    """Adjoint of sqrt(X)."""
    return _gate("sxdg", [[0.5 - 0.5j, 0.5 + 0.5j], [0.5 + 0.5j, 0.5 - 0.5j]])


def sy_gate() -> Gate:
    """Square root of Y (used by the supremacy circuits as Y^1/2)."""
    return _gate("sy", [[0.5 + 0.5j, -0.5 - 0.5j], [0.5 + 0.5j, 0.5 + 0.5j]])


def sydg_gate() -> Gate:
    """Adjoint of sqrt(Y)."""
    return _gate("sydg", [[0.5 - 0.5j, 0.5 - 0.5j], [-0.5 + 0.5j, 0.5 - 0.5j]])


# ---------------------------------------------------------------------------
# Parametrised single-qubit gates
# ---------------------------------------------------------------------------


def rx_gate(theta: float) -> Gate:
    """Rotation around the X axis by ``theta``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _gate("rx", [[c, -1j * s], [-1j * s, c]], (theta,))


def ry_gate(theta: float) -> Gate:
    """Rotation around the Y axis by ``theta``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _gate("ry", [[c, -s], [s, c]], (theta,))


def rz_gate(theta: float) -> Gate:
    """Rotation around the Z axis by ``theta`` (traceless convention)."""
    phase = cmath.exp(-1j * theta / 2)
    return _gate("rz", [[phase, 0], [0, phase.conjugate()]], (theta,))


def phase_gate(theta: float) -> Gate:
    """Diagonal phase gate diag(1, e^{i theta}).

    This is the gate appearing in the controlled-phase ladder of the QFT.
    """
    return _gate("p", [[1, 0], [0, cmath.exp(1j * theta)]], (theta,))


def gphase_gate(theta: float) -> Gate:
    """Global phase ``e^{i theta}`` carried on one qubit.

    Applied uncontrolled this is an unobservable global phase; it exists
    so the compile pipeline and decompositions can keep circuits *exactly*
    equivalent (not just up to phase), which matters once an op is placed
    under control.
    """
    phase = cmath.exp(1j * theta)
    return _gate("gphase", [[phase, 0], [0, phase]], (theta,))


def u2_gate(phi: float, lam: float) -> Gate:
    """The OpenQASM ``u2`` gate."""
    return _gate(
        "u2",
        [
            [_SQRT1_2, -_SQRT1_2 * cmath.exp(1j * lam)],
            [_SQRT1_2 * cmath.exp(1j * phi), _SQRT1_2 * cmath.exp(1j * (phi + lam))],
        ],
        (phi, lam),
    )


def u3_gate(theta: float, phi: float, lam: float) -> Gate:
    """The OpenQASM ``u3`` gate (general single-qubit unitary)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _gate(
        "u3",
        [
            [c, -s * cmath.exp(1j * lam)],
            [s * cmath.exp(1j * phi), c * cmath.exp(1j * (phi + lam))],
        ],
        (theta, phi, lam),
    )


# ---------------------------------------------------------------------------
# Two-qubit gates
# ---------------------------------------------------------------------------


def swap_gate() -> Gate:
    """SWAP of two qubits."""
    return _gate(
        "swap",
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
    )


def iswap_gate() -> Gate:
    """iSWAP: swap with an i phase on the exchanged amplitudes."""
    return _gate(
        "iswap",
        [
            [1, 0, 0, 0],
            [0, 0, 1j, 0],
            [0, 1j, 0, 0],
            [0, 0, 0, 1],
        ],
    )


def rzz_gate(theta: float) -> Gate:
    """Two-qubit ZZ rotation exp(-i theta/2 Z⊗Z)."""
    a = cmath.exp(-1j * theta / 2)
    b = cmath.exp(1j * theta / 2)
    return _gate(
        "rzz",
        [
            [a, 0, 0, 0],
            [0, b, 0, 0],
            [0, 0, b, 0],
            [0, 0, 0, a],
        ],
        (theta,),
    )


def rxx_gate(theta: float) -> Gate:
    """Two-qubit XX rotation exp(-i theta/2 X⊗X)."""
    c = math.cos(theta / 2)
    s = -1j * math.sin(theta / 2)
    return _gate(
        "rxx",
        [
            [c, 0, 0, s],
            [0, c, s, 0],
            [0, s, c, 0],
            [s, 0, 0, c],
        ],
        (theta,),
    )


def ryy_gate(theta: float) -> Gate:
    """Two-qubit YY rotation exp(-i theta/2 Y⊗Y)."""
    c = math.cos(theta / 2)
    s = 1j * math.sin(theta / 2)
    return _gate(
        "ryy",
        [
            [c, 0, 0, s],
            [0, c, -s, 0],
            [0, -s, c, 0],
            [s, 0, 0, c],
        ],
        (theta,),
    )


def fsim_gate(theta: float, phi: float) -> Gate:
    """The fSim gate family (hopping + controlled phase).

    ``fsim(theta, phi)`` swaps excitations with amplitude ``-i sin(theta)``
    and applies a phase ``e^{-i phi}`` on the doubly-occupied state.  The
    jellium hopping term uses ``fsim(theta, 0)``.
    """
    c = math.cos(theta)
    s = -1j * math.sin(theta)
    return _gate(
        "fsim",
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, s, c, 0],
            [0, 0, 0, cmath.exp(-1j * phi)],
        ],
        (theta, phi),
    )


# ---------------------------------------------------------------------------
# Registry used by the QASM parser and the circuit builder
# ---------------------------------------------------------------------------

GATE_REGISTRY: Dict[str, Callable[..., Gate]] = {
    "id": identity_gate,
    "x": x_gate,
    "y": y_gate,
    "z": z_gate,
    "h": h_gate,
    "s": s_gate,
    "sdg": sdg_gate,
    "t": t_gate,
    "tdg": tdg_gate,
    "sx": sx_gate,
    "sxdg": sxdg_gate,
    "sy": sy_gate,
    "sydg": sydg_gate,
    "rx": rx_gate,
    "ry": ry_gate,
    "rz": rz_gate,
    "p": phase_gate,
    "gphase": gphase_gate,
    "u1": phase_gate,
    "u2": u2_gate,
    "u3": u3_gate,
    "swap": swap_gate,
    "iswap": iswap_gate,
    "rzz": rzz_gate,
    "rxx": rxx_gate,
    "ryy": ryy_gate,
    "fsim": fsim_gate,
}
