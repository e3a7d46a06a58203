"""The weak-simulation front door.

:func:`simulate_and_sample` wires the full pipeline of the paper's Fig. 2:
strong simulation (dense or DD) followed by output sampling with the
chosen back-end.  :func:`sample_statevector` and :func:`sample_dd` are the
second stage alone, for callers that already hold a final state.

Every ``method="dd"`` answer, noisy or not, is drawn from one artifact:
:func:`build_artifact` runs the strong simulation and flattens the final
state (or, with noise, ρ's diagonal) into a
:class:`~repro.perf.compiled_dd.CompiledDD` plus its build record, and
:func:`sample_artifact` draws from it.  The library and the sampling
service (:mod:`repro.service`) both go through these two functions, so
a cached artifact samples exactly like a fresh one.

Methods (``method=`` argument):

========================  ====================================================
``"dd"``                  DD path sampling, vectorised per level (default)
``"dd-path"``             DD path sampling, one pure-Python walk per shot
``"dd-multinomial"``      recursive binomial shot splitting on the DD
``"dd-collapse"``         per-shot sequential measurement collapse
``"vector"``              dense prefix sums + binary search (Section III)
``"vector-linear"``       dense linear traversal per sample
``"vector-ooc"``          prefix sampling over an on-disk probability file
``"vector-alias"``        Walker's alias method (O(1) per sample)
========================  ====================================================
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from .. import telemetry as _telemetry
from ..circuit.circuit import QuantumCircuit
from ..dd.approximation import ApproximationConfig
from ..dd.normalization import NormalizationScheme
from ..dd.reorder import (
    ReorderConfig,
    is_identity_permutation,
    unpermute_counts,
    unpermute_samples,
)
from ..dd.vector_dd import VectorDD
from ..exceptions import SamplingError
from ..noise.model import NoiseModel
from ..perf import compiled_dd as _compiled_dd
from ..perf.compiled_dd import CompiledDD
from ..perf.parallel import DEFAULT_CHUNK_SHOTS, sample_chunked
from ..simulators.base import SimulationStats
from ..simulators.build_spec import DD_METHODS, VECTOR_METHODS, BuildSpec
from ..simulators.dd_simulator import DDSimulator
from ..simulators.density_simulator import (
    DensityMatrixSimulator,
    compile_noisy_sampler,
)
from ..simulators.statevector import DEFAULT_MEMORY_CAP, StatevectorSimulator
from .dd_sampler import DDSampler
from .prefix_sampler import (
    OutOfCorePrefixSampler,
    PrefixSampler,
    probabilities_from_statevector,
)
from .results import SampleResult
from .shot_executor import ShotExecutor

__all__ = [
    "VECTOR_METHODS",
    "DD_METHODS",
    "simulate_and_sample",
    "build_artifact",
    "sample_artifact",
    "sample_statevector",
    "sample_dd",
]


def sample_statevector(
    statevector: np.ndarray,
    shots: int,
    method: str = "vector",
    seed: Union[int, np.random.Generator, None] = None,
    telemetry: Optional["_telemetry.Telemetry"] = None,
) -> SampleResult:
    """Weak simulation from a dense final state (paper Section III).

    ``telemetry`` activates an observability session for the call: the
    precompute and sampling stages become trace spans (see
    ``docs/observability.md``).
    """
    if method not in VECTOR_METHODS:
        raise SamplingError(f"unknown vector sampling method {method!r}")
    if shots < 0:
        raise SamplingError(f"shots must be non-negative, got {shots}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    with _telemetry.activate(telemetry):
        start = time.perf_counter()
        with _telemetry.span("precompute", method=method):
            probabilities = probabilities_from_statevector(statevector)
            if method == "vector-ooc":
                sampler = OutOfCorePrefixSampler.from_probabilities(probabilities)
            elif method == "vector-alias":
                from .alias_sampler import AliasSampler

                sampler = AliasSampler(probabilities, is_statevector=False)
            else:
                sampler = PrefixSampler(probabilities, is_statevector=False)
        precompute = time.perf_counter() - start
        start = time.perf_counter()
        try:
            with _telemetry.span("sampling", method=method, shots=shots):
                if method == "vector-linear":
                    samples = sampler.sample_linear(shots, rng)
                else:
                    samples = sampler.sample(shots, rng)
        finally:
            if method == "vector-ooc":
                sampler.close()
        sampling = time.perf_counter() - start
        result = SampleResult.from_samples(sampler.num_qubits, samples, method=method)
    result.precompute_seconds = precompute
    result.sampling_seconds = sampling
    return result


def sample_dd(
    state: VectorDD,
    shots: int,
    method: str = "dd",
    seed: Union[int, np.random.Generator, None] = None,
    trust_l2_normalization: bool = True,
    workers: Optional[int] = None,
    telemetry: Optional["_telemetry.Telemetry"] = None,
) -> SampleResult:
    """Weak simulation from a DD final state (paper Section IV).

    ``workers`` (``"dd"`` method only) draws the shots in fixed-size
    chunks with per-chunk seed streams — reproducible for a given seed
    at any worker count — and runs the chunks on a thread pool when
    ``workers > 1``.  ``telemetry`` activates an observability session:
    the precompute and sampling stages become trace spans and the DD
    table / compiled-cache counters land in the metrics registry.
    """
    if method not in DD_METHODS:
        raise SamplingError(f"unknown DD sampling method {method!r}")
    if shots < 0:
        raise SamplingError(f"shots must be non-negative, got {shots}")
    BuildSpec().check(method, workers)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    with _telemetry.activate(telemetry):
        start = time.perf_counter()
        with _telemetry.span("precompute", method=method) as precompute_span:
            sampler = DDSampler(state, trust_l2_normalization=trust_l2_normalization)
            if method == "dd":
                # Compiling the traversal tables is part of precompute for
                # the vectorised sampler (cache may make this a no-op).
                sampler.compiled()
            precompute_span.set_attr("dd_nodes", state.node_count)
        precompute = time.perf_counter() - start
        start = time.perf_counter()
        with _telemetry.span("sampling", method=method, shots=shots):
            if method == "dd":
                result = sampler.sample_result(
                    shots, rng, method=method, workers=workers
                )
            elif method == "dd-path":
                samples = sampler.sample_paths(shots, rng)
                result = SampleResult.from_samples(
                    state.num_qubits, samples, method=method
                )
            elif method == "dd-multinomial":
                counts = sampler.sample_counts_multinomial(shots, rng)
                result = SampleResult(
                    num_qubits=state.num_qubits, counts=counts, method=method
                )
            else:
                samples = sampler.sample_collapse(shots, rng)
                result = SampleResult.from_samples(
                    state.num_qubits, samples, method=method
                )
        result.sampling_seconds = time.perf_counter() - start
        result.precompute_seconds = precompute
        result.metadata["dd_statistics"] = state.package.stats()
        result.metadata["compiled_cache"] = _compiled_dd.DEFAULT_CACHE.stats()
        if workers is not None:
            result.metadata["workers"] = workers
        session = _telemetry.active()
        if session is not None:
            session.registry.record_dd_tables(result.metadata["dd_statistics"])
            session.registry.record_compiled_cache(result.metadata["compiled_cache"])
            session.registry.counter("sample.shots").inc(shots)
    return result


def _build_metadata(stats: SimulationStats) -> dict:
    """Build-phase diagnostics attached to every result (CLI ``--stats``)."""
    metadata = {
        "applied_operations": stats.applied_operations,
        "strategy_counts": dict(stats.strategy_counts),
        "diagonal_term_applications": stats.diagonal_term_applications,
        "compile": dict(stats.compile_stats),
    }
    if stats.kernel is not None:
        metadata["kernel"] = stats.kernel
        metadata["kernel_fallbacks"] = stats.kernel_fallbacks
        metadata["kernel_levels"] = stats.kernel_levels
    if stats.fidelity_bound is not None:
        metadata["approximation"] = {
            "rounds": stats.approx_rounds,
            "removed_edges": stats.approx_removed_edges,
            "removed_mass": stats.approx_removed_mass,
            "fidelity_bound": stats.fidelity_bound,
        }
    if stats.level_to_qubit is not None:
        metadata["reorder"] = {
            "level_to_qubit": list(stats.level_to_qubit),
            "rounds": stats.reorder_rounds,
            "swaps": stats.reorder_swaps,
            "swaps_kept": stats.reorder_swaps_kept,
        }
    return metadata


def _simulator(spec: BuildSpec, node_limit: Optional[int] = None):
    """The strong simulator of a DD route: the density one when noisy."""
    if spec.noise is not None:
        return DensityMatrixSimulator(noise=spec.noise, node_limit=node_limit)
    return DDSimulator(
        scheme=spec.scheme,
        optimize=spec.optimize,
        approximation=spec.approximation,
        node_limit=node_limit,
        reorder=spec.reorder,
    )


def build_artifact(
    circuit: QuantumCircuit,
    spec: BuildSpec = BuildSpec(),
    node_limit: Optional[int] = None,
) -> Tuple[CompiledDD, Dict[str, Any]]:
    """Strong simulation into the served sampling artifact and its record.

    Runs :class:`~repro.simulators.dd_simulator.DDSimulator`, or
    :class:`~repro.simulators.density_simulator.DensityMatrixSimulator`
    when ``spec.noise`` is set (``node_limit`` is their mid-build node
    ceiling), then flattens the final state — with noise, ρ's diagonal
    with readout folded in — under the ``precompute`` span.  Returns the
    :class:`~repro.perf.compiled_dd.CompiledDD` and its build record:
    the :func:`_build_metadata` diagnostics, the ``noise`` block, the DD
    table counters (``dd_tables``) and the provenance ``num_qubits``,
    ``dd_nodes``, ``compiled_size``, ``scheme``, ``optimize``,
    ``initial_state``, ``circuit_name`` and ``engine``.

    The record is plain JSON data: the artifact store keeps it as the
    artifact's ``meta``, and every result drawn from the artifact
    carries it as ``metadata["build"]``.  A reordered artifact samples
    in level space; :func:`sample_artifact` moves its draws back through
    ``record["reorder"]["level_to_qubit"]``.
    """
    simulator = _simulator(spec, node_limit)
    state = simulator.run(circuit, initial_state=spec.initial_state)
    noise = spec.noise
    with _telemetry.span("precompute", method="dd") as precompute_span:
        if noise is not None:
            precompute_span.set_attr("noisy", True)
            compiled = compile_noisy_sampler(state, noise)
        else:
            compiled = DDSampler(state).compiled()
        dd_nodes = state.node_count
        precompute_span.set_attr("dd_nodes", dd_nodes)
    stats = simulator.stats
    record = _build_metadata(stats)
    if noise is not None:
        record["noise"] = {
            "model": noise.to_dict(),
            "channel_applications": stats.noise_channel_applications,
            "kraus_applications": stats.noise_kraus_applications,
        }
    record.update(
        dd_tables=state.package.stats(),
        num_qubits=circuit.num_qubits,
        dd_nodes=dd_nodes,
        compiled_size=compiled.size,
        scheme=spec.scheme.value,
        optimize=spec.optimize,
        initial_state=spec.initial_state,
        circuit_name=circuit.name,
        engine=stats.kernel,
    )
    return compiled, record


def sample_artifact(
    compiled: CompiledDD,
    meta: Dict[str, Any],
    shots: int,
    rng: np.random.Generator,
    workers: Optional[int] = None,
) -> SampleResult:
    """Draw ``shots`` from a built artifact, in original qubit order.

    ``meta`` is the artifact's build record (:func:`build_artifact`).
    ``workers`` draws the shots in fixed-size chunks with per-chunk seed
    streams, reproducible for a given seed at any worker count, on a
    thread pool when ``workers > 1``.  A reordered artifact's draws are
    moved back through ``meta["reorder"]["level_to_qubit"]``.
    """
    if shots < 0:
        raise SamplingError(f"shots must be non-negative, got {shots}")
    if workers is None:
        samples = compiled.sample(shots, rng)
    else:
        samples = sample_chunked(
            compiled.sample,
            shots,
            rng,
            workers=workers,
            chunk_shots=DEFAULT_CHUNK_SHOTS,
        )
    level_to_qubit = (meta.get("reorder") or {}).get("level_to_qubit")
    if level_to_qubit is not None and not is_identity_permutation(level_to_qubit):
        samples = unpermute_samples(samples, level_to_qubit)
    return SampleResult.from_samples(compiled.num_qubits, samples, method="dd")


def simulate_and_sample(
    circuit: QuantumCircuit,
    shots: int,
    method: str = "dd",
    seed: Union[int, np.random.Generator, None] = None,
    initial_state: int = 0,
    scheme: NormalizationScheme = NormalizationScheme.L2,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP,
    workers: Optional[int] = None,
    optimize: bool = True,
    telemetry: Optional["_telemetry.Telemetry"] = None,
    approximation: Optional[ApproximationConfig] = None,
    reorder: Optional[ReorderConfig] = None,
    noise: Optional[NoiseModel] = None,
) -> SampleResult:
    """Full weak simulation: run ``circuit``, then draw ``shots`` samples.

    Raises :class:`~repro.exceptions.MemoryOutError` for vector methods
    whose dense state would exceed ``memory_cap_bytes`` — the "MO" rows
    of the paper's Table I.  ``workers`` enables seed-stable parallel
    chunked sampling for the default ``"dd"`` method.  ``optimize``
    routes the circuit through the compile pipeline first (exact rewrite;
    pass ``False`` to simulate the circuit verbatim).  ``telemetry``
    attaches a :class:`repro.telemetry.Telemetry` session covering the
    whole pipeline — compile, build, precompute, sampling — ready for
    JSONL export (CLI flag ``--trace``).  The build picks its own
    engine (see :class:`~repro.simulators.dd_simulator.DDSimulator`).
    ``approximation`` (DD methods only) enables controlled DD pruning —
    an :class:`~repro.dd.approximation.ApproximationConfig`, a bare
    epsilon, or a ``{"epsilon": ...}`` mapping; the result's
    ``metadata["build"]["approximation"]`` then reports the tracked
    fidelity bound (see ``docs/approximation.md``).  ``reorder`` (DD
    methods only) enables dynamic qubit reordering during the build — a
    :class:`~repro.dd.reorder.ReorderConfig`, ``True``, or a mapping;
    reported samples stay in the original qubit order (the build's
    level-to-qubit permutation is applied to the drawn counts and
    recorded in ``metadata["build"]["reorder"]``; see
    ``docs/reordering.md``).  ``noise`` (``"dd"`` method only) switches
    to the density-matrix simulator with per-gate Kraus channels — a
    :class:`~repro.noise.NoiseModel`, a bare depolarizing strength, or a
    mapping (see :meth:`~repro.noise.NoiseModel.from_value`); the
    samples then come from the mixed state's diagonal and
    ``metadata["build"]["noise"]`` records the model (see
    ``docs/noise.md``).  A disabled model (all strengths zero) is
    normalised away, so the run is bit-identical to the exact pure-state
    path at equal seed.  ``method="dd"`` (noisy or not) runs
    :func:`build_artifact` then :func:`sample_artifact`, as the sampling
    service does: ``metadata["build"]`` is the artifact's build record,
    and ``precompute_seconds`` covers the build and the flattening.

    :meth:`BuildSpec.route <repro.simulators.build_spec.BuildSpec.route>`
    picks the path, as it does for every surface: a circuit with a
    mid-circuit measurement (a measurement followed by further gates)
    runs through :class:`~repro.core.shot_executor.ShotExecutor`
    whatever ``method`` says, so each shot records every qubit's last
    measured value and unmeasured qubits read 0 (the result's method is
    ``"shot-executor"``); with ``noise`` it takes the density path
    instead, where the measurement dephases.  A combination no path can
    serve raises :class:`~repro.simulators.build_spec.BuildSpecError` (a
    :class:`~repro.exceptions.SamplingError`) with its row of the rule
    table in ``docs/api.md``.
    """
    spec = BuildSpec.of(scheme, optimize, initial_state, approximation, reorder, noise)
    path = spec.route(circuit, method, workers)
    with _telemetry.activate(telemetry):
        if path == "shot-executor":
            return ShotExecutor(
                circuit, spec.scheme, spec.optimize, initial_state=spec.initial_state
            ).run(shots, seed)
        if path == "statevector":
            simulator = StatevectorSimulator(
                memory_cap_bytes=memory_cap_bytes, optimize=spec.optimize
            )
            statevector = simulator.run(circuit, initial_state=spec.initial_state)
            result = sample_statevector(statevector, shots, method=method, seed=seed)
            result.metadata["build"] = _build_metadata(simulator.stats)
            return result
        if method != "dd":
            # dd-path, dd-multinomial and dd-collapse walk the live DD.
            dd_simulator = _simulator(spec)
            state = dd_simulator.run(circuit, initial_state=spec.initial_state)
            result = sample_dd(state, shots, method=method, seed=seed)
            level_to_qubit = dd_simulator.stats.level_to_qubit
            if level_to_qubit is not None and not is_identity_permutation(
                level_to_qubit
            ):
                # Samples were drawn in level space; re-key the counts back
                # to original qubit order (a bijection on basis indices, so
                # the shot total is preserved exactly).
                result.counts = unpermute_counts(result.counts, level_to_qubit)
            result.metadata["build"] = _build_metadata(dd_simulator.stats)
            return result
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        start = time.perf_counter()
        compiled, build = build_artifact(circuit, spec)
        precompute = time.perf_counter() - start
        start = time.perf_counter()
        with _telemetry.span("sampling", method=method, shots=shots):
            result = sample_artifact(compiled, build, shots, rng, workers)
        result.sampling_seconds = time.perf_counter() - start
        result.precompute_seconds = precompute
        result.metadata["build"] = build
        result.metadata["compiled_cache"] = _compiled_dd.DEFAULT_CACHE.stats()
        if workers is not None:
            result.metadata["workers"] = workers
        session = _telemetry.active()
        if session is not None:
            session.registry.record_dd_tables(build["dd_tables"])
            session.registry.record_compiled_cache(result.metadata["compiled_cache"])
            session.registry.counter("sample.shots").inc(shots)
        return result
