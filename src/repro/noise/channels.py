"""Single-qubit noise channels in Kraus form.

A quantum channel is described by a set of Kraus operators ``{K_i}``
acting as ``rho -> sum_i K_i rho K_i^dagger``; physicality requires the
completeness relation ``sum_i K_i^dagger K_i = I`` (trace preservation).
Every constructor here validates that relation, and
:class:`KrausChannel` re-validates it on construction, so a channel that
reaches the density-matrix simulator is trace-preserving by contract.

All channels are single-qubit; multi-qubit noise is modelled by applying
the channel independently to each qubit an operation touches (the
standard local-noise approximation, as in the QuIDD work of
Viamontes/Markov/Hayes, quant-ph/0403114).  See ``docs/noise.md`` for
the exact matrices and parameter conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..exceptions import NoiseError

__all__ = [
    "KrausChannel",
    "validate_kraus",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "bit_flip",
    "phase_flip",
    "dephasing",
    "CHANNEL_BUILDERS",
]

#: Absolute tolerance for the completeness relation sum K†K = I.
COMPLETENESS_TOLERANCE = 1e-9

_IDENTITY2 = np.eye(2, dtype=np.complex128)


def _freeze(matrix) -> Tuple[Tuple[complex, ...], ...]:
    """Coerce a 2x2 matrix into a hashable nested tuple of complex."""
    array = np.asarray(matrix, dtype=np.complex128)
    if array.shape != (2, 2):
        raise NoiseError(
            f"Kraus operators must be 2x2 matrices, got shape {array.shape}"
        )
    return tuple(tuple(complex(value) for value in row) for row in array)


def validate_kraus(
    operators: Sequence, tolerance: float = COMPLETENESS_TOLERANCE
) -> None:
    """Check the completeness relation ``sum_i K_i^dagger K_i = I``.

    Raises :class:`~repro.exceptions.NoiseError` when the operator set is
    empty, contains a non-2x2 matrix, or is not trace-preserving within
    ``tolerance`` — a channel that fails this would silently leak or
    create probability mass during simulation.
    """
    if not operators:
        raise NoiseError("a channel needs at least one Kraus operator")
    total = np.zeros((2, 2), dtype=np.complex128)
    for operator in operators:
        array = np.asarray(operator, dtype=np.complex128)
        if array.shape != (2, 2):
            raise NoiseError(
                f"Kraus operators must be 2x2 matrices, got shape {array.shape}"
            )
        total += array.conj().T @ array
    if not np.allclose(total, _IDENTITY2, atol=tolerance, rtol=0.0):
        deviation = float(np.max(np.abs(total - _IDENTITY2)))
        raise NoiseError(
            "Kraus operators violate completeness: sum K†K deviates from "
            f"the identity by {deviation:.3e} (tolerance {tolerance:.1e})"
        )


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving single-qubit channel ``rho -> sum K_i rho K_i†``.

    Operators are stored as hashable nested tuples; :attr:`arrays`
    exposes them as NumPy matrices and :attr:`superoperator` as the one
    4×4 map the density simulator applies.  Construction validates the
    completeness relation.
    """

    name: str
    operators: Tuple[Tuple[Tuple[complex, ...], ...], ...]

    def __post_init__(self) -> None:
        frozen = tuple(_freeze(operator) for operator in self.operators)
        object.__setattr__(self, "operators", frozen)
        validate_kraus(self.arrays)

    @property
    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The Kraus operators as 2x2 complex NumPy arrays."""
        return tuple(
            np.asarray(operator, dtype=np.complex128)
            for operator in self.operators
        )

    @cached_property
    def superoperator(self) -> Tuple[Tuple[complex, ...], ...]:
        """``S = sum_i K_i ⊗ conj(K_i)``, built once per channel.

        Entry ``[2i + j][2a + b]`` is ``sum_k K[i, a] conj(K[j, b])``:
        the weight of block ``(a, b)`` of ``rho`` in block ``(i, j)`` of
        the output, in a matrix-DD node's successor order (see
        :func:`repro.dd.density.apply_local_map`).
        """
        total = sum(np.kron(kraus, kraus.conj()) for kraus in self.arrays)
        return tuple(tuple(complex(value) for value in row) for row in total)

    def __len__(self) -> int:
        return len(self.operators)


def _strength(name: str, value: float) -> float:
    """Validate a channel strength parameter into ``[0, 1]``."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise NoiseError(f"{name} strength must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0 or not math.isfinite(value):
        raise NoiseError(f"{name} strength must be in [0, 1], got {value}")
    return value


def depolarizing(probability: float) -> KrausChannel:
    """Depolarizing channel ``rho -> (1 - p) rho + p I/2``.

    Kraus form: ``sqrt(1 - 3p/4) I`` plus ``sqrt(p/4) {X, Y, Z}``.  At
    ``p = 1`` every input maps to the maximally mixed state ``I/2``.
    """
    p = _strength("depolarizing", probability)
    k0 = math.sqrt(1.0 - 0.75 * p) * _IDENTITY2
    scale = math.sqrt(0.25 * p)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    pauli_y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    pauli_z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return KrausChannel(
        name="depolarizing",
        operators=(k0, scale * pauli_x, scale * pauli_y, scale * pauli_z),
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """Amplitude damping (energy relaxation toward ``|0⟩``) with rate γ.

    ``K0 = [[1, 0], [0, sqrt(1-γ)]]``, ``K1 = [[0, sqrt(γ)], [0, 0]]``.
    At ``γ = 1`` every input maps to ``|0⟩⟨0|``.
    """
    g = _strength("amplitude_damping", gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1.0 - g)]], dtype=np.complex128)
    k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=np.complex128)
    return KrausChannel(name="amplitude_damping", operators=(k0, k1))


def phase_damping(lam: float) -> KrausChannel:
    """Phase damping (pure dephasing, no energy loss) with rate λ.

    ``K0 = [[1, 0], [0, sqrt(1-λ)]]``, ``K1 = [[0, 0], [0, sqrt(λ)]]``.
    At ``λ = 1`` all off-diagonal coherence is destroyed.
    """
    l = _strength("phase_damping", lam)
    k0 = np.array([[1, 0], [0, math.sqrt(1.0 - l)]], dtype=np.complex128)
    k1 = np.array([[0, 0], [0, math.sqrt(l)]], dtype=np.complex128)
    return KrausChannel(name="phase_damping", operators=(k0, k1))


def bit_flip(probability: float) -> KrausChannel:
    """Bit-flip channel ``rho -> (1-p) rho + p X rho X``."""
    p = _strength("bit_flip", probability)
    k0 = math.sqrt(1.0 - p) * _IDENTITY2
    k1 = math.sqrt(p) * np.array([[0, 1], [1, 0]], dtype=np.complex128)
    return KrausChannel(name="bit_flip", operators=(k0, k1))


def phase_flip(probability: float) -> KrausChannel:
    """Phase-flip channel ``rho -> (1-p) rho + p Z rho Z``."""
    p = _strength("phase_flip", probability)
    k0 = math.sqrt(1.0 - p) * _IDENTITY2
    k1 = math.sqrt(p) * np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return KrausChannel(name="phase_flip", operators=(k0, k1))


def dephasing() -> KrausChannel:
    """The full-dephasing (non-selective measurement) channel ``{P0, P1}``.

    ``rho -> P0 rho P0 + P1 rho P1`` zeroes all coherence on the qubit
    while preserving populations — exactly the effect of measuring a
    qubit and discarding the outcome.  The density-matrix simulator
    applies this to every qubit of a mid-circuit measurement.
    """
    p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    return KrausChannel(name="dephasing", operators=(p0, p1))


#: Gate-attached channel constructors by :class:`~repro.noise.NoiseModel`
#: field name (readout error is not gate-attached and is handled
#: separately at sampling time).
CHANNEL_BUILDERS: Dict[str, Callable[[float], KrausChannel]] = {
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "phase_damping": phase_damping,
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
}
