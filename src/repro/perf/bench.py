"""The in-tree benchmark harness: emits ``BENCH_sampling.json``.

One run measures each layer of weak simulation once.  Every timing is
named after the perfbench layer it matches (``compile.optimize``,
``build.kernel``, ``build.python``, ``precompute.compile_edge``,
``sample.draw``), so "compile" means the circuit pipeline and the DD
flattening is "precompute".  The sections:

* **cases** — one row per circuit: operation counts and rewrite-pass
  counters, the pipeline, the unoptimized build, the optimized build on
  both engines (the SoA vector kernel and the python reference) with
  their equal-seed bit-identity, DD flattening and sampling.  Pipeline
  and builds report the best of :data:`REPEATS` runs.  The qft, grover
  and supremacy rows must cut the applied operations by at least
  :data:`REDUCTION_FLOOR` percent,
* **indistinguishability** — a two-sample chi-square test between shots
  of the optimized and the unoptimized simulation,
* **reordering** — the crossing-pair circuit built in the fixed and in a
  sifted variable order: peak-node reduction, equal-seed determinism,
  an exact permutation round-trip and an exact distribution
  (``docs/reordering.md``),
* **compiled_cache** — cache counters proving that a second sampler over
  the same state skips the flattening,
* **mid_circuit** — the outcome-branching executor against the per-shot
  reference loop, both at :data:`MID_CIRCUIT_SHOTS`,
* **parallel** — chunked sampling wall time per worker count, plus a
  bit-identity check of the worker-independence guarantee,
* **telemetry** — the full pipeline with and without an active
  :class:`repro.telemetry.Telemetry` session, alternating, min of
  repeats,
* **approximation** — ε = 0.05 pruning against the exact build on the
  dusty-GHZ circuit: peak nodes, the tracked fidelity bound and the
  measured TVD against it (``docs/approximation.md``),
* **noise** — noisy weak simulation through the density path, checked
  against the dense density reference, with the equal-seed and
  strength-0 bit-identity contracts (``docs/noise.md``).

Each section has one check.  :func:`validate_payload` runs them all on
a payload; ``--gate`` runs one section at gate size and judges it with
the same check (:data:`GATES`: ``make bench-kernel``, ``bench-approx``,
``bench-noise`` and ``bench-reorder``).

Run it with::

    python -m repro.perf.bench --out BENCH_sampling.json
    python -m repro.perf.bench --smoke          # toy sizes, seconds
    python -m repro.perf.bench --gate reorder   # kernel, approx, noise, reorder
    python -m repro.perf.bench --validate BENCH_sampling.json
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.grover import grover
from ..algorithms.qft import qft
from ..algorithms.states import ghz
from ..algorithms.supremacy import supremacy
from ..circuit.circuit import QuantumCircuit
from ..compile import optimize_circuit
from ..core.dd_sampler import DDSampler
from ..core.indistinguishability import two_sample_chi_square
from ..core.shot_executor import ShotExecutor
from ..core.weak_sim import sample_dd, simulate_and_sample
from ..dd.approximation import ApproximationConfig
from ..dd.reorder import ReorderConfig, unpermute_counts
from ..noise import NoiseModel, noisy_probabilities_dense
from ..simulators.dd_simulator import DDSimulator
from ..simulators.density_simulator import (
    DensityMatrixSimulator,
    compile_noisy_sampler,
)
from ..simulators.statevector import StatevectorSimulator
from .compiled_dd import CompiledDDCache
from .parallel import sample_chunked

__all__ = [
    "FORMAT",
    "VERSION",
    "SHOTS",
    "SEED",
    "KERNEL_SPEEDUP_FLOOR",
    "APPROX_GATE_NODE_LIMIT",
    "NOISE_GATE_NODE_LIMIT",
    "NOISE_TVD_LIMIT",
    "GATES",
    "dusty_ghz",
    "run_harness",
    "validate_payload",
    "main",
]

FORMAT = "repro-bench-sampling"
VERSION = 6

#: Shots per case row and the harness seed.
SHOTS = 100_000
SEED = 7

#: Runs per pipeline and build in a case row; the row reports the best.
REPEATS = 3

#: Shots for both mid-circuit executors at full size: the per-shot loop
#: costs milliseconds per shot, so equal shots keep the speedup measured.
MID_CIRCUIT_SHOTS = 2_000

#: Minimum applied-operation reduction (percent) the pipeline must reach
#: on the rows of these families.
REDUCTION_FLOOR = 25.0
REDUCTION_FAMILIES = ("qft", "grover", "supremacy")

#: The kernel gate: the SoA kernel's build of optimized qft_16 must beat
#: the python reference by at least this factor (best of 3).
KERNEL_SPEEDUP_FLOOR = 3.0

#: The approximation gate's node budget: the exact build of the gate's
#: circuit must blow through this mid-build, while the ε = 0.05
#: approximate build completes under it.
APPROX_GATE_NODE_LIMIT = 800

#: Peak-node reduction the full-size approximation section must reach
#: (exact peak / approximate peak, both from ``track_peak`` probes).
APPROX_NODE_REDUCTION_FLOOR = 2.0

#: The noise gate's node budget for the ghz_20 leg: a depolarized GHZ
#: chain's density DD grows ~4x per two qubits (the Pauli-error branches
#: of early gates propagate through the CNOT ladder), so a full 20-qubit
#: build is out of reach for the python engine — the gate instead proves
#: the ceiling aborts the build with a clean ``MemoryError`` instead of
#: hanging.  Kept low because gate cost near the ceiling scales with the
#: operand node counts.
NOISE_GATE_NODE_LIMIT = 600

#: Ceiling for the noisy sampler's TVD against the dense density
#: reference (both are analytic distributions, so this is a numerical
#: agreement check, not a sampling bound — see ``NOISE_ATOL`` in
#: ``repro.fuzz.oracles`` for why it is looser than machine epsilon).
NOISE_TVD_LIMIT = 1e-6

#: Fail validation when the telemetry-enabled pipeline is this much
#: slower than the disabled one — generous because the measured circuit
#: is small (absolute overhead is microseconds per gate), tight enough
#: to catch an accidentally expensive hot-path hook.
TELEMETRY_OVERHEAD_LIMIT_PERCENT = 100.0

#: The reordering floor: sifting must shrink the crossing-pair circuit's
#: peak node count by at least this factor.
REORDER_NODE_REDUCTION_FLOOR = 1.5

#: Top-level keys every payload must carry, with the per-section keys.
_SCHEMA: Dict[str, List[str]] = {
    "cases": [
        "name",
        "num_qubits",
        "ops_before",
        "ops_after",
        "reduction_percent",
        "passes",
        "shots",
        "repeats",
        "dd_nodes",
        "seconds",
        "kernel_speedup",
        "optimize_speedup",
        "samples_bit_identical",
    ],
    "indistinguishability": ["circuit", "shots", "distributions_consistent"],
    "reordering": [
        "circuit",
        "num_qubits",
        "peak_nodes_fixed",
        "peak_nodes_reordered",
        "node_reduction_factor",
        "level_to_qubit",
        "swaps_kept",
        "deterministic_at_equal_seed",
        "permutation_roundtrip_exact",
        "distribution_exact",
    ],
    "compiled_cache": ["builds", "reuses", "evictions", "entries"],
    "mid_circuit": [
        "circuit",
        "num_qubits",
        "shots",
        "per_shot_seconds",
        "branching_seconds",
        "speedup",
        "distributions_consistent",
    ],
    "parallel": ["shots", "chunk_shots", "workers", "seconds", "reproducible"],
    "telemetry": [
        "circuit",
        "shots",
        "repeats",
        "disabled_seconds",
        "enabled_seconds",
        "overhead_percent",
        "trace_records",
    ],
    "approximation": [
        "circuit",
        "num_qubits",
        "operations",
        "epsilon",
        "interval",
        "node_limit",
        "exact_aborted",
        "exact_build_seconds",
        "exact_peak_nodes",
        "exact_final_nodes",
        "approx_build_seconds",
        "approx_peak_nodes",
        "approx_final_nodes",
        "node_reduction",
        "speedup",
        "pruning_rounds",
        "edges_removed",
        "fidelity_bound",
        "tvd_bound",
        "tvd",
        "tvd_within_bound",
        "samples_bit_identical",
    ],
    "noise": [
        "circuit",
        "num_qubits",
        "model",
        "shots",
        "build_seconds",
        "diagonal_seconds",
        "sample_seconds",
        "shots_per_second",
        "dd_nodes",
        "compiled_size",
        "channel_applications",
        "tvd_vs_dense",
        "tvd_within_limit",
        "samples_bit_identical",
        "strength0_bit_identical",
    ],
}


def dusty_ghz(
    num_qubits: int, depth: int, delta: float = 0.01, seed: int = 7
) -> QuantumCircuit:
    """A dominant-path circuit whose exact DD goes dense: the
    approximation showcase.

    A GHZ skeleton followed by ``depth`` layers of tiny ``ry(≈delta)``
    rotations and alternating CX pairs.  The tiny rotations spray
    low-amplitude "dust" branches off the two dominant GHZ paths; the
    entangling layers stop the dust from merging back, so the exact DD
    saturates at ``2^n − 1`` nodes while fidelity-driven pruning
    (``docs/approximation.md``) keeps cutting the dust and holds the
    diagram thin.  Random circuits make a deliberately *bad* showcase —
    their states have no amplitude hierarchy, so there is nothing cheap
    to prune — which is why the harness measures this regime instead.
    """
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits, name=f"dusty_ghz_{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for layer in range(depth):
        for qubit in range(num_qubits):
            circuit.ry(delta * (0.5 + rng.random()), qubit)
        for qubit in range(layer % 2, num_qubits - 1, 2):
            circuit.cx(qubit, qubit + 1)
    return circuit


def _mid_circuit_circuit(num_qubits: int) -> QuantumCircuit:
    """A measure-and-continue circuit exercising every executor branch."""
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.h(qubit)
    circuit.measure(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.measure(1)
    circuit.h(0)
    circuit.measure_all()
    return circuit


def _crossing_circuit(num_qubits: int, seed: int) -> QuantumCircuit:
    """Crossing-pair circuit: the natural order's worst case.

    Random single-qubit rotations followed by ``cx(i, i + n/2)``
    entanglers: every interaction spans half the register, so under the
    natural variable order the DD pays for correlations between maximally
    distant levels.  Reordering can move the partners adjacent and
    collapse the peak node count — the effect the section quantifies.
    """
    rng = np.random.default_rng(seed)
    half = num_qubits // 2
    circuit = QuantumCircuit(num_qubits, name=f"crossing_{num_qubits}")
    for layer in range(2):
        for qubit in range(num_qubits):
            theta, phi, lam = (
                float(v) for v in rng.uniform(0, 2 * np.pi, size=3)
            )
            circuit.u3(theta, phi, lam, qubit)
        for low in range(half):
            circuit.cx(low, low + half)
    return circuit


def _case_circuits(smoke: bool) -> List[QuantumCircuit]:
    """The case table: one circuit per row."""
    if smoke:
        return [ghz(8), qft(8), grover(5, seed=1).circuit, supremacy(3, 3, 5, seed=1)]
    return [
        ghz(16),
        ghz(20),
        qft(16),
        qft(20),
        grover(8, seed=1).circuit,
        supremacy(4, 4, 5, seed=1),
    ]


def _failed(*checks: Tuple[bool, str]) -> List[str]:
    """The messages of the ``(holds, message)`` checks that do not hold."""
    return [message for holds, message in checks if not holds]


def _timed(run: Callable, repeats: int = 1):
    """Wall time of ``run()``, the best of ``repeats`` calls, and its last result."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _case(circuit: QuantumCircuit, shots: int, seed: int) -> Dict:
    """One row of the case table: every layer of one circuit, timed.

    Pipeline and builds report the best of :data:`REPEATS` runs.  The
    optimized circuit is built with ``optimize=False`` on both engines,
    so they time the identical instruction stream; ``optimize_speedup``
    compares the unoptimized build with pipeline plus optimized build,
    what a caller pays end to end.  Bit-identity is checked on
    equal-seed samples from the two engines' compiled tables.
    """

    def build(kernel: str, source: QuantumCircuit):
        return _timed(
            lambda: DDSimulator(kernel=kernel, optimize=False).run(source), REPEATS
        )

    pipeline, (optimized, rewrite) = _timed(
        lambda: optimize_circuit(circuit), REPEATS
    )
    unoptimized, _ = build("auto", circuit)
    python, python_state = build("python", optimized)
    kernel, state = build("auto", optimized)
    flatten, compiled = _timed(DDSampler(state).compiled)
    draw, samples = _timed(lambda: compiled.sample(shots, np.random.default_rng(seed)))
    reference = DDSampler(python_state).compiled().sample(
        shots, np.random.default_rng(seed)
    )
    stats = rewrite.to_dict()
    seconds = {
        "compile.optimize": pipeline,
        "build.kernel_unoptimized": unoptimized,
        "build.python": python,
        "build.kernel": kernel,
        "precompute.compile_edge": flatten,
        "sample.draw": draw,
    }
    return {
        "name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "ops_before": stats["input_operations"],
        "ops_after": stats["output_operations"],
        "reduction_percent": stats["reduction_percent"],
        "passes": stats["passes"],
        "shots": shots,
        "repeats": REPEATS,
        "dd_nodes": compiled.size,
        "seconds": {layer: round(value, 6) for layer, value in seconds.items()},
        "kernel_speedup": round(python / max(kernel, 1e-9), 2),
        "optimize_speedup": round(unoptimized / max(pipeline + kernel, 1e-9), 2),
        "samples_bit_identical": bool(np.array_equal(samples, reference)),
    }


def _indistinguishability(circuit: QuantumCircuit, shots: int, seed: int) -> Dict:
    """Chi-square test between optimized and unoptimized simulations.

    Different seeds on purpose: identical streams would make the test
    degenerate (identical counts regardless of the rewrite).
    """
    optimized = simulate_and_sample(circuit, shots, seed=seed, optimize=True)
    verbatim = simulate_and_sample(circuit, shots, seed=seed + 1, optimize=False)
    return {
        "circuit": circuit.name,
        "shots": shots,
        "distributions_consistent": bool(
            two_sample_chi_square(optimized.counts, verbatim.counts).consistent
        ),
    }


def _reordering(num_qubits: int, shots: int, seed: int) -> Dict:
    """The crossing-pair circuit built in the fixed and a sifted order.

    Records the peak-node reduction, equal-seed determinism of reordered
    sampling, the permutation round-trip (level-space samples re-keyed
    through the recorded ``level_to_qubit`` must be *bit-identical* to
    the counts the public API reports), and exact distribution equality
    against the fixed-order build after accounting for the permutation.
    """
    circuit = _crossing_circuit(num_qubits, seed)

    fixed = DDSimulator()
    fixed_state = fixed.run(circuit)
    peak_fixed = fixed.stats.peak_dd_nodes

    config = ReorderConfig(enabled=True)
    reordered = DDSimulator(reorder=config)
    reordered_state = reordered.run(circuit)
    peak_reordered = reordered.stats.peak_dd_nodes
    perm = reordered.stats.level_to_qubit or tuple(range(num_qubits))

    first = simulate_and_sample(circuit, shots, seed=seed, reorder=config)
    second = simulate_and_sample(circuit, shots, seed=seed, reorder=config)
    level_result = sample_dd(reordered_state, shots, method="dd", seed=seed)
    roundtrip_exact = unpermute_counts(level_result.counts, perm) == first.counts

    # Amplitude exactness: sifting moves levels, never amplitudes.
    level_probs = reordered_state.probabilities()
    indices = np.arange(1 << num_qubits)
    targets = np.zeros_like(indices)
    for level, qubit in enumerate(perm):
        targets |= ((indices >> level) & 1) << qubit
    mapped = np.zeros_like(level_probs)
    mapped[targets] = level_probs[indices]

    return {
        "circuit": circuit.name,
        "num_qubits": num_qubits,
        "peak_nodes_fixed": int(peak_fixed),
        "peak_nodes_reordered": int(peak_reordered),
        "node_reduction_factor": round(peak_fixed / max(peak_reordered, 1), 2),
        "level_to_qubit": list(perm),
        "swaps_kept": int(reordered.stats.reorder_swaps_kept),
        "deterministic_at_equal_seed": first.counts == second.counts,
        "permutation_roundtrip_exact": bool(roundtrip_exact),
        "distribution_exact": bool(
            np.abs(mapped - fixed_state.probabilities()).max() <= 1e-9
        ),
    }


def _mid_circuit(num_qubits: int, shots: int, seed: int) -> Dict:
    """Outcome branching against the per-shot reference, at equal shots.

    Branching reports the best of :data:`REPEATS` runs, each the first
    run of a fresh executor, so every timed run includes the prefix
    build; the per-shot reference is one run.
    """
    circuit = _mid_circuit_circuit(num_qubits)
    executors = [ShotExecutor(circuit) for _ in range(REPEATS)]
    branching_seconds, branching = min(
        (_timed(lambda: executor.run(shots, seed=seed)) for executor in executors),
        key=lambda timing: timing[0],
    )
    per_shot_seconds, per_shot = _timed(
        lambda: executors[-1].run_per_shot(shots, seed=seed + 1)
    )
    return {
        "circuit": f"mid_circuit_{num_qubits}",
        "num_qubits": num_qubits,
        "shots": shots,
        "per_shot_seconds": round(per_shot_seconds, 6),
        "branching_seconds": round(branching_seconds, 6),
        "speedup": round(per_shot_seconds / max(branching_seconds, 1e-9), 2),
        "distributions_consistent": bool(
            two_sample_chi_square(branching.counts, per_shot.counts).consistent
        ),
    }


def _parallel(
    compiled, shots: int, seed: int, workers: tuple, chunk_shots: int
) -> Dict:
    """Chunked sampling per worker count; every count must agree."""
    seconds: Dict[str, float] = {}
    draws = []
    for count in workers:
        elapsed, samples = _timed(
            lambda: sample_chunked(
                compiled.sample,
                shots,
                seed,
                workers=count,
                chunk_shots=chunk_shots,
            ),
        )
        seconds[str(count)] = round(elapsed, 6)
        draws.append(samples)
    return {
        "shots": shots,
        "chunk_shots": chunk_shots,
        "workers": list(workers),
        "seconds": seconds,
        "reproducible": all(np.array_equal(draws[0], d) for d in draws[1:]),
    }


def _telemetry(num_qubits: int, shots: int, seed: int, repeats: int) -> Dict:
    """Time the full pipeline with telemetry off and on (min of repeats).

    Disabled and enabled runs alternate, so drift in the machine's speed
    lands on both sides.  The minimum over ``repeats`` runs is the
    standard noise-resistant estimator for short benchmarks: any
    scheduler hiccup only ever makes a run *slower*, so the minimum is
    the cleanest observation.
    """
    from ..telemetry import Telemetry

    circuit = qft(num_qubits)
    disabled, enabled, trace_records = [], [], []
    for i in range(repeats):
        start = time.perf_counter()
        simulate_and_sample(circuit, shots, seed=seed + i)
        disabled.append(time.perf_counter() - start)
        session = Telemetry()
        start = time.perf_counter()
        simulate_and_sample(circuit, shots, seed=seed + i, telemetry=session)
        enabled.append(time.perf_counter() - start)
        trace_records.append(len(session.records()))
    overhead = 100.0 * (min(enabled) - min(disabled)) / max(min(disabled), 1e-9)
    return {
        "circuit": f"qft_{num_qubits}",
        "shots": shots,
        "repeats": repeats,
        "disabled_seconds": round(min(disabled), 6),
        "enabled_seconds": round(min(enabled), 6),
        "overhead_percent": round(overhead, 2),
        "trace_records": trace_records[0],
    }


def _approximation(
    circuit: QuantumCircuit,
    shots: int,
    seed: int,
    node_limit: Optional[int] = None,
) -> Dict:
    """Exact vs ε = 0.05 approximate build, optionally under a node limit.

    Both builds run with ``track_peak`` so the peak-node columns come
    from the per-gate probes, not just the final diagram.  Under a
    ``node_limit`` (the gate) the exact build is expected to abort with
    ``MemoryError``; its node and speedup columns are then ``None``.
    The approximate build runs twice at the same seed to pin the
    equal-seed bit-identity guarantee, and the dense TVD against the
    statevector reference is compared with the tracked bound
    ``sqrt(1 − fidelity)``.
    """
    config = ApproximationConfig(epsilon=0.05, interval=10)

    exact = DDSimulator(node_limit=node_limit, track_peak=True)
    start = time.perf_counter()
    try:
        exact.run(circuit)
        exact_aborted = False
    except MemoryError:
        exact_aborted = True
    exact_seconds = time.perf_counter() - start

    approx = DDSimulator(
        approximation=config, node_limit=node_limit, track_peak=True
    )
    approx_seconds, state = _timed(lambda: approx.run(circuit))
    stats = approx.stats

    bound = float(stats.fidelity_bound)
    tvd_bound = float(np.sqrt(max(0.0, 1.0 - bound)))
    reference = np.abs(StatevectorSimulator().run(circuit)) ** 2
    tvd = 0.5 * float(np.abs(state.probabilities() - reference).sum())

    samples = DDSampler(state).compiled().sample(
        shots, np.random.default_rng(seed)
    )
    replay_state = DDSimulator(approximation=config, node_limit=node_limit).run(
        circuit
    )
    replay = DDSampler(replay_state).compiled().sample(
        shots, np.random.default_rng(seed)
    )

    exact_peak = None if exact_aborted else exact.stats.peak_dd_nodes
    return {
        "circuit": circuit.name,
        "num_qubits": circuit.num_qubits,
        "operations": circuit.num_operations,
        "epsilon": config.epsilon,
        "interval": config.interval,
        "node_limit": node_limit,
        "exact_aborted": exact_aborted,
        "exact_build_seconds": round(exact_seconds, 6),
        "exact_peak_nodes": exact_peak,
        "exact_final_nodes": None if exact_aborted else exact.stats.final_dd_nodes,
        "approx_build_seconds": round(approx_seconds, 6),
        "approx_peak_nodes": stats.peak_dd_nodes,
        "approx_final_nodes": stats.final_dd_nodes,
        "node_reduction": None
        if exact_aborted
        else round(exact_peak / max(stats.peak_dd_nodes, 1), 2),
        "speedup": None
        if exact_aborted
        else round(exact_seconds / max(approx_seconds, 1e-9), 2),
        "pruning_rounds": stats.approx_rounds,
        "edges_removed": stats.approx_removed_edges,
        "fidelity_bound": round(bound, 6),
        "tvd_bound": round(tvd_bound, 6),
        "tvd": round(tvd, 6),
        "tvd_within_bound": bool(tvd <= tvd_bound + 1e-9),
        "samples_bit_identical": bool(np.array_equal(samples, replay)),
    }


def _noise(
    num_qubits: int, shots: int, seed: int, ceiling: Optional[int] = None
) -> Dict:
    """Noisy weak simulation through the density path, dense-checked.

    A GHZ chain under a mixed channel model (depolarizing + amplitude
    damping + readout error) is built as a density DD, its diagonal
    compiled into the flat-array sampler, and the three stages timed.
    The compiled distribution must agree with
    :func:`repro.noise.noisy_probabilities_dense` to
    :data:`NOISE_TVD_LIMIT`, equal-seed rebuild samples must be
    bit-identical, and an all-zero model must reproduce the exact pure
    path bit-for-bit (the disabled-means-exact contract).

    With a node ``ceiling`` (the gate), a depolarized ghz_20 build under
    that limit must also abort with a clean ``MemoryError`` — the density
    DD outgrows any python-engine budget, and the ceiling is what keeps
    the service's noisy admission honest.
    """
    circuit = ghz(num_qubits)
    noise = NoiseModel(
        depolarizing=0.02,
        amplitude_damping=0.01,
        readout_p01=0.01,
        readout_p10=0.005,
    )

    simulator = DensityMatrixSimulator(noise=noise)
    build_seconds, rho = _timed(lambda: simulator.run(circuit))
    diagonal_seconds, compiled = _timed(lambda: compile_noisy_sampler(rho, noise))
    sample_seconds, samples = _timed(
        lambda: compiled.sample(shots, np.random.default_rng(seed))
    )

    tvd = 0.5 * float(
        np.abs(
            compiled.probabilities() - noisy_probabilities_dense(circuit, noise)
        ).sum()
    )
    rebuilt = compile_noisy_sampler(
        DensityMatrixSimulator(noise=noise).run(circuit), noise
    )
    replay = rebuilt.sample(shots, np.random.default_rng(seed))

    strength0 = simulate_and_sample(
        circuit, min(shots, 20_000), seed=seed, noise=NoiseModel()
    )
    exact = simulate_and_sample(circuit, min(shots, 20_000), seed=seed)

    record = {
        "circuit": circuit.name,
        "num_qubits": num_qubits,
        "model": noise.to_dict(),
        "shots": shots,
        "build_seconds": round(build_seconds, 6),
        "diagonal_seconds": round(diagonal_seconds, 6),
        "sample_seconds": round(sample_seconds, 6),
        "shots_per_second": round(shots / max(sample_seconds, 1e-9), 1),
        "dd_nodes": rho.node_count,
        "compiled_size": compiled.size,
        "channel_applications": simulator.stats.noise_channel_applications,
        "tvd_vs_dense": float(tvd),
        "tvd_within_limit": bool(tvd <= NOISE_TVD_LIMIT),
        "samples_bit_identical": bool(np.array_equal(samples, replay)),
        "strength0_bit_identical": strength0.counts == exact.counts,
    }
    if ceiling is not None:
        start = time.perf_counter()
        try:
            DensityMatrixSimulator(
                noise=NoiseModel(depolarizing=0.01), node_limit=ceiling
            ).run(ghz(20))
            enforced = False
        except MemoryError:
            enforced = True
        record.update(
            ceiling_circuit="ghz_20",
            ceiling_node_limit=ceiling,
            ceiling_enforced=enforced,
            ceiling_seconds=round(time.perf_counter() - start, 6),
        )
    return record


# ---------------------------------------------------------------------------
# Checks: one per section, shared by validate_payload and the gates
# ---------------------------------------------------------------------------


def _case_failures(row: Dict) -> List[str]:
    """A case row's check: the two engines sample bit-identically."""
    return _failed(
        (
            row["samples_bit_identical"],
            f"case {row['name']!r}: kernel and python builds produced "
            "different samples at equal seed",
        )
    )


def _cases_failures(rows: List[Dict]) -> List[str]:
    """Every row's check, plus the pipeline's reduction floor."""
    failures = []
    for row in rows:
        failures += _case_failures(row)
        if row["name"].startswith(REDUCTION_FAMILIES):
            failures += _failed(
                (
                    row["reduction_percent"] >= REDUCTION_FLOOR,
                    f"case {row['name']!r} reduction {row['reduction_percent']}% "
                    f"below the {REDUCTION_FLOOR}% floor",
                )
            )
    return failures


def _kernel_gate_failures(row: Dict) -> List[str]:
    """The kernel gate: the row's check plus the speedup floor."""
    return _case_failures(row) + _failed(
        (
            row["kernel_speedup"] >= KERNEL_SPEEDUP_FLOOR,
            f"kernel speedup {row['kernel_speedup']}x is below the "
            f"{KERNEL_SPEEDUP_FLOOR}x floor",
        )
    )


def _reordering_failures(record: Dict) -> List[str]:
    """The reordering check: floor, determinism, round-trip, exactness."""
    return _failed(
        (
            record["node_reduction_factor"] >= REORDER_NODE_REDUCTION_FLOOR,
            f"reordering peak-node reduction {record['node_reduction_factor']}x "
            f"below the {REORDER_NODE_REDUCTION_FLOOR}x floor",
        ),
        (
            record["deterministic_at_equal_seed"],
            "reordered sampling is not seed-deterministic",
        ),
        (
            record["permutation_roundtrip_exact"],
            "level-space samples re-keyed through level_to_qubit do not "
            "match the reported counts",
        ),
        (
            record["distribution_exact"],
            "reordered distribution differs from the fixed-order build",
        ),
    )


def _approximation_failures(record: Dict, full: bool = False) -> List[str]:
    """The approximation check.

    Every run needs the TVD inside the tracked bound and bit-identical
    rebuilds.  Under a node limit (the gate) the exact build must abort
    and the approximate one fit; without one, the fidelity bound must
    not overspend ε and, on a ``full``-size run, the peak-node reduction
    must reach :data:`APPROX_NODE_REDUCTION_FLOOR`.
    """
    checks = [
        (
            record["tvd_within_bound"],
            f"approximation TVD {record['tvd']} exceeds the tracked bound "
            f"{record['tvd_bound']}",
        ),
        (
            record["samples_bit_identical"],
            "approximate rebuilds produced different samples at equal seed",
        ),
    ]
    limit = record["node_limit"]
    if limit is None:
        checks += [
            (
                record["fidelity_bound"] >= 1.0 - record["epsilon"] - 1e-9,
                f"fidelity bound {record['fidelity_bound']} overspends the "
                f"epsilon budget {record['epsilon']}",
            ),
            (
                not full
                or record["node_reduction"] >= APPROX_NODE_REDUCTION_FLOOR,
                f"approximation peak-node reduction {record['node_reduction']}x "
                f"is below the {APPROX_NODE_REDUCTION_FLOOR}x floor",
            ),
        ]
    else:
        checks += [
            (record["exact_aborted"], "exact build did not hit the node limit"),
            (
                record["approx_peak_nodes"] <= limit,
                "approximate build exceeded the node limit",
            ),
        ]
    return _failed(*checks)


def _noise_failures(record: Dict) -> List[str]:
    """The noise check: dense agreement, rebuild and strength-0 identity,
    and (when the record has the ghz_20 leg) the node ceiling."""
    return _failed(
        (
            record["tvd_within_limit"],
            f"noisy sampler TVD {record['tvd_vs_dense']} vs the dense "
            f"density reference exceeds the {NOISE_TVD_LIMIT} limit",
        ),
        (
            record["samples_bit_identical"],
            "noisy rebuilds produced different samples at equal seed",
        ),
        (
            record["strength0_bit_identical"],
            "strength-0 noise drifted from the exact path at equal seed",
        ),
        (
            record.get("ceiling_enforced", True),
            "ghz_20 build did not hit the node ceiling",
        ),
    )


#: ``--gate`` name -> (its section at gate size, that section's check).
#: Each gate keeps its circuit, size and constants: ``make bench-kernel``,
#: ``bench-approx``, ``bench-noise`` and ``bench-reorder`` run them.
GATES: Dict[str, Tuple[Callable[[], Dict], Callable[[Dict], List[str]]]] = {
    "kernel": (lambda: _case(qft(16), 20_000, SEED), _kernel_gate_failures),
    "approx": (
        lambda: _approximation(
            dusty_ghz(10, 8), 2_000, SEED, node_limit=APPROX_GATE_NODE_LIMIT
        ),
        _approximation_failures,
    ),
    "noise": (
        lambda: _noise(8, 20_000, SEED, ceiling=NOISE_GATE_NODE_LIMIT),
        _noise_failures,
    ),
    "reorder": (lambda: _reordering(10, 4_000, SEED), _reordering_failures),
}


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------


def run_harness(smoke: bool = False, workers: tuple = (1, 2, 4)) -> Dict:
    """Execute every section and return the payload dict.

    ``smoke`` runs toy sizes in seconds; ``workers`` are the worker
    counts the parallel section times.
    """
    shots = 5_000 if smoke else SHOTS
    # A private cache isolates the reuse counters from whatever the
    # process did before the harness ran (samplers look the cache up
    # late-bound through the module attribute).
    from . import compiled_dd

    cache = CompiledDDCache()
    previous_cache = compiled_dd.DEFAULT_CACHE
    compiled_dd.DEFAULT_CACHE = cache
    try:
        # Untimed warmup builds: the first kernel invocation in a
        # process pays one-off import and NumPy dispatch costs that
        # would otherwise be billed to whichever case runs first.
        for engine in ("python", "auto"):
            DDSimulator(kernel=engine).run(ghz(4))
        payload: Dict = {
            "format": FORMAT,
            "version": VERSION,
            "config": {"shots": shots, "seed": SEED, "smoke": smoke},
            "cases": [_case(c, shots, SEED) for c in _case_circuits(smoke)],
            "indistinguishability": _indistinguishability(
                qft(8 if smoke else 16), min(shots, 50_000), SEED
            ),
            # 12 qubits is the sweet spot: the crossing pattern reliably
            # gives ~2.4x there, while at 14 the mid-build states are
            # near-dense in *every* variable order and no reordering helps.
            "reordering": _reordering(10 if smoke else 12, min(shots, 4_000), SEED),
        }

        # Two fresh samplers over one state: the second must reuse.
        state = DDSimulator().run(ghz(8 if smoke else 16))
        DDSampler(state).compiled()
        DDSampler(state).compiled()
        payload["compiled_cache"] = cache.stats()

        payload["mid_circuit"] = _mid_circuit(
            4 if smoke else 6, 1_000 if smoke else MID_CIRCUIT_SHOTS, SEED
        )
        payload["parallel"] = _parallel(
            DDSampler(state).compiled(),
            shots,
            SEED,
            workers,
            chunk_shots=1_024 if smoke else 16_384,
        )
        payload["telemetry"] = _telemetry(
            8 if smoke else 12, shots, SEED, repeats=3 if smoke else 5
        )
        payload["approximation"] = _approximation(
            dusty_ghz(10, 8) if smoke else dusty_ghz(12, 10), 5_000, SEED
        )
        payload["noise"] = _noise(6 if smoke else 10, min(shots, 20_000), SEED)
        return payload
    finally:
        compiled_dd.DEFAULT_CACHE = previous_cache


def validate_payload(payload: Dict) -> None:
    """Raise ``ValueError`` when ``payload`` drifts from the schema or
    fails any section's check."""
    if payload.get("format") != FORMAT:
        raise ValueError(f"format must be {FORMAT!r}")
    if payload.get("version") != VERSION:
        raise ValueError(f"version must be {VERSION}")
    if "config" not in payload:
        raise ValueError("missing section 'config'")
    for section, keys in _SCHEMA.items():
        if section not in payload:
            raise ValueError(f"missing section {section!r}")
        entries = payload[section]
        if section == "cases":
            if not isinstance(entries, list) or not entries:
                raise ValueError("'cases' must be a non-empty list")
        else:
            entries = [entries]
        for entry in entries:
            missing = [key for key in keys if key not in entry]
            if missing:
                raise ValueError(f"section {section!r} missing keys {missing}")
    telemetry = payload["telemetry"]
    failures = (
        _cases_failures(payload["cases"])
        + _failed(
            (
                payload["indistinguishability"]["distributions_consistent"],
                "optimised sampling distribution drifted",
            ),
            (
                payload["mid_circuit"]["distributions_consistent"],
                "branching executor distribution drifted",
            ),
            (
                payload["parallel"]["reproducible"],
                "parallel sampling was not worker-count reproducible",
            ),
            (
                telemetry["overhead_percent"] <= TELEMETRY_OVERHEAD_LIMIT_PERCENT,
                f"telemetry overhead {telemetry['overhead_percent']}% exceeds "
                f"the {TELEMETRY_OVERHEAD_LIMIT_PERCENT}% budget",
            ),
            (
                telemetry["trace_records"] > 0,
                "telemetry-enabled run produced no trace records",
            ),
        )
        + _reordering_failures(payload["reordering"])
        + _approximation_failures(
            payload["approximation"], full=not payload["config"].get("smoke")
        )
        + _noise_failures(payload["noise"])
    )
    if failures:
        raise ValueError("; ".join(failures))


def _build_parser() -> argparse.ArgumentParser:
    """The bench CLI's argument parser (importable for the docs checker)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark every layer of weak simulation and emit "
        "BENCH_sampling.json.",
    )
    parser.add_argument(
        "--out", default="BENCH_sampling.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="toy sizes: exercises every section in seconds",
    )
    parser.add_argument(
        "--gate",
        choices=list(GATES),
        help="run one section at gate size, judge it with the section's "
        "check and exit 1 on any failure (the 'make bench-<gate>' targets)",
    )
    parser.add_argument(
        "--validate",
        metavar="FILE",
        help="validate an existing payload against the schema and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.perf.bench``."""
    args = _build_parser().parse_args(argv)

    if args.validate:
        with open(args.validate, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            validate_payload(payload)
        except ValueError as error:
            print(f"schema drift: {error}", file=sys.stderr)
            return 1
        print(f"{args.validate}: schema ok (version {payload['version']})")
        return 0

    if args.gate:
        run, check = GATES[args.gate]
        record = run()
        print(f"bench-{args.gate}: {json.dumps(record)}")
        failures = check(record)
        for message in failures:
            print(f"bench-{args.gate}: {message}", file=sys.stderr)
        return 1 if failures else 0

    payload = run_harness(smoke=args.smoke)
    validate_payload(payload)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    mid = payload["mid_circuit"]
    approximation = payload["approximation"]
    speedups = ", ".join(
        f"{row['name']}={row['kernel_speedup']}x" for row in payload["cases"]
    )
    print(
        f"wrote {args.out}: kernel speedup {speedups}"
        f"; branching speedup {mid['speedup']}x over per-shot at "
        f"{mid['shots']} shots; telemetry overhead "
        f"{payload['telemetry']['overhead_percent']}%; approximation "
        f"{approximation['node_reduction']}x fewer peak nodes; reordering "
        f"{payload['reordering']['node_reduction_factor']}x; noise TVD vs "
        f"dense {payload['noise']['tvd_vs_dense']:.2e}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
