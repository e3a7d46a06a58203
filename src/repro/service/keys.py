"""Canonical cache keys for compiled sampling artifacts.

A persistent cache is only as sound as its key.  The key used by the
artifact store must change whenever *anything* that can change the
compiled flat arrays changes, and must be identical across processes for
semantically identical inputs.  Three layers feed it:

1. **The circuit** — :func:`circuit_fingerprint` hashes the exact
   instruction sequence: gate matrices bit-for-bit (``complex128``
   bytes, not names — a custom gate named ``h`` must not collide with
   Hadamard), target/control/anti-control wiring, diagonal phase blocks
   term by term, measurement and barrier placement (barriers fence the
   optimizer, so they can change the compiled circuit and hence the
   float-exact artifact).
2. **The build configuration** — a
   :class:`~repro.simulators.build_spec.BuildSpec`: normalisation
   scheme, optimizer on/off, initial state, and the approximation,
   reorder and noise contracts all change the produced DD.  An
   ε-approximated artifact must *never* be served for an exact request
   (or for a different ε), so enabled features are folded into the key;
   a disabled one (``epsilon = 0`` …) adds nothing, keeping every
   pre-existing exact key stable.
3. **The contract versions** — the package version and the
   :data:`~repro.perf.compiled_dd.ARTIFACT_VERSION` serialisation
   version, so upgrading the library invalidates old artifacts instead
   of misreading them (the version-mismatch tests in
   ``tests/test_service_store.py`` pin this behaviour).

Keys are hex SHA-256 digests — filesystem-safe, collision-resistant, and
stable across platforms and processes.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Optional

import numpy as np

from .. import __version__ as _package_version
from ..circuit.circuit import QuantumCircuit
from ..circuit.operations import (
    Barrier,
    DiagonalOperation,
    Measurement,
    Operation,
)
from ..dd.normalization import NormalizationScheme
from ..exceptions import SamplingError
from ..perf.compiled_dd import ARTIFACT_VERSION
from ..simulators.build_spec import BuildSpec

__all__ = ["ARTIFACT_KEY_VERSION", "circuit_fingerprint", "cache_key", "spec_key"]

#: Bump when the fingerprint *encoding itself* changes (field order,
#: float representation, …); folded into every fingerprint.
ARTIFACT_KEY_VERSION = 1


def _hash_floats(hasher: "hashlib._Hash", values) -> None:
    """Feed IEEE-754 bytes — not reprs — so equality is bit-exact."""
    for value in values:
        hasher.update(struct.pack("<d", float(value)))


def _hash_qubits(hasher: "hashlib._Hash", label: bytes, qubits) -> None:
    hasher.update(label)
    ordered = sorted(int(q) for q in qubits)
    hasher.update(struct.pack("<i", len(ordered)))
    for qubit in ordered:
        hasher.update(struct.pack("<i", qubit))


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Canonical SHA-256 of a circuit's exact instruction sequence.

    Two circuits share a fingerprint iff they produce byte-identical
    simulation inputs: same register width, same instructions in the
    same order, with gates compared by their ``complex128`` matrices.
    Gate *names* and the circuit's display name are ignored.
    """
    hasher = hashlib.sha256()
    hasher.update(b"repro-circuit-fingerprint")
    hasher.update(struct.pack("<ii", ARTIFACT_KEY_VERSION, circuit.num_qubits))
    for instruction in circuit:
        if isinstance(instruction, Operation):
            hasher.update(b"op")
            matrix = np.ascontiguousarray(
                instruction.gate.array, dtype=np.complex128
            )
            hasher.update(struct.pack("<i", matrix.shape[0]))
            hasher.update(matrix.tobytes())
            hasher.update(struct.pack("<i", len(instruction.targets)))
            for target in instruction.targets:  # target order is semantic
                hasher.update(struct.pack("<i", int(target)))
            _hash_qubits(hasher, b"ctl", instruction.controls)
            _hash_qubits(hasher, b"neg", instruction.neg_controls)
        elif isinstance(instruction, DiagonalOperation):
            hasher.update(b"diag")
            hasher.update(struct.pack("<i", len(instruction.terms)))
            for term in instruction.terms:
                _hash_qubits(hasher, b"ones", term.ones)
                _hash_qubits(hasher, b"zeros", term.zeros)
                _hash_floats(hasher, (term.angle,))
        elif isinstance(instruction, Measurement):
            _hash_qubits(hasher, b"measure", instruction.qubits)
        elif isinstance(instruction, Barrier):
            _hash_qubits(hasher, b"barrier", instruction.qubits)
        else:  # pragma: no cover - append() already rejects these
            raise SamplingError(
                f"cannot fingerprint instruction {type(instruction).__name__}"
            )
    return hasher.hexdigest()


def spec_key(
    circuit: QuantumCircuit,
    spec: BuildSpec,
    package_version: Optional[str] = None,
) -> str:
    """The artifact-store key: circuit fingerprint + build spec + versions.

    The byte layout, in order: the fingerprint, the scheme, ``opt`` or
    ``raw``, the initial state, :data:`ARTIFACT_VERSION`, the package
    version, then the enabled features
    (:meth:`~repro.simulators.build_spec.BuildSpec.fold_key`).  No
    engine enters the key: the build picks its own, and both engines
    build bit-identical artifacts.  ``package_version`` defaults to
    ``repro.__version__``; tests override it to exercise
    version-mismatch invalidation.
    """
    hasher = hashlib.sha256()
    hasher.update(b"repro-artifact-key")
    hasher.update(circuit_fingerprint(circuit).encode("ascii"))
    hasher.update(spec.scheme.value.encode("ascii"))
    hasher.update(b"opt" if spec.optimize else b"raw")
    hasher.update(struct.pack("<q", int(spec.initial_state)))
    hasher.update(struct.pack("<i", ARTIFACT_VERSION))
    version = package_version if package_version is not None else _package_version
    hasher.update(version.encode("utf-8"))
    spec.fold_key(hasher)
    return hasher.hexdigest()


def cache_key(
    circuit: QuantumCircuit,
    scheme: NormalizationScheme = NormalizationScheme.L2,
    optimize: bool = True,
    initial_state: int = 0,
    package_version: Optional[str] = None,
    approximation: Any = None,
    reorder: Any = None,
    noise: Any = None,
) -> str:
    """:func:`spec_key` of the settings, parsed by ``BuildSpec.of``.

    The features take any spelling
    :meth:`~repro.simulators.build_spec.BuildSpec.of` does (configs,
    bare numbers, bools, mappings).  An *enabled* approximation config
    is folded bit-exactly (epsilon plus the strategy knobs), so
    approximate artifacts never share a key with exact ones; an
    *enabled* reorder config likewise (a reordered artifact stores
    level-space arrays plus its permutation); an *enabled* noise model
    as its full canonical strength tuple, with ``optimize`` forced off
    as every noisy build runs the circuit as written — so
    ``cache_key(c, noise=m)`` is the key the service stores noisy
    artifacts under.  A ``None`` or disabled feature leaves the digest
    byte-identical to the historic exact key.
    """
    spec = BuildSpec.of(
        scheme=scheme,
        optimize=optimize,
        initial_state=initial_state,
        approximation=approximation,
        reorder=reorder,
        noise=noise,
    )
    return spec_key(circuit, spec, package_version)
