"""Differential and metamorphic oracles over the simulation backends.

Every oracle takes a circuit plus a dedicated RNG stream and either
returns ``None`` (agreement) or a human-readable failure detail.  Exact
probability distributions are compared where tractable (dense reference
within :data:`MAX_EXACT_QUBITS`); sampling backends are compared by
chi-square with a p-value floor low enough that a seeded pass never
flakes, yet many orders of magnitude above what a real bug produces.

Exceptions raised *inside* a backend count as failures too — a crash on
a valid circuit is as much a bug as a wrong distribution — so the
minimizer can shrink crashing circuits with the same machinery.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit, circuit_has_mid_circuit_measurement
from ..circuit.qasm import parse_qasm, to_qasm
from ..circuit.transforms import permute_qubits
from ..core.dd_sampler import DDSampler
from ..core.indistinguishability import (
    chi_square_gof,
    total_variation_distance,
    two_sample_chi_square,
)
from ..core.shot_executor import ShotExecutor
from ..core.weak_sim import (
    DD_METHODS,
    VECTOR_METHODS,
    build_artifact,
    sample_dd,
    simulate_and_sample,
)
from ..dd.approximation import ApproximationConfig
from ..dd.normalization import NormalizationScheme
from ..dd.reorder import ReorderConfig
from ..exceptions import ReproError
from ..service.__main__ import run_batch
from ..service.api import SamplingRequest, SamplingService
from ..simulators.build_spec import BuildSpec
from ..simulators.dd_simulator import DDSimulator
from ..simulators.stabilizer import StabilizerSimulator
from ..simulators.statevector import StatevectorSimulator
from .families import CircuitFamily

__all__ = [
    "ATOL",
    "APPROX_EPSILON",
    "APPROX_INTERVAL",
    "NOISE_ATOL",
    "NOISE_MAX_OPERATIONS",
    "NOISE_MAX_QUBITS",
    "NOISE_NODE_LIMIT",
    "NOISE_WIDE_ENTANGLER_CAP",
    "NOISE_WIDE_MAX_OPERATIONS",
    "P_VALUE_FLOOR",
    "SAMPLE_SHOTS",
    "PER_SHOT_SAMPLE_SHOTS",
    "SURFACE_NOISE",
    "SURFACE_SHOTS",
    "SURFACE_WIDE_MAX_OPERATIONS",
    "MAX_EXACT_QUBITS",
    "Oracle",
    "ORACLES",
    "get_oracle",
    "applicable_oracles",
]

#: Absolute tolerance for exact distribution comparison.
ATOL = 1e-9

#: Chi-square p-values below this fail a sampling check.  Seeded runs are
#: deterministic, so any failure is exactly replayable; a genuine backend
#: bug drives the p-value to ~0 rather than hovering near the floor.
P_VALUE_FLOOR = 1e-6

#: Shots drawn for the sampling (chi-square) oracles.
SAMPLE_SHOTS = 1024

#: Shots for oracles whose reference side is the literal per-shot loop
#: (O(shots x segments) DD work); kept small so the smoke budget holds.
PER_SHOT_SAMPLE_SHOTS = 128

#: Largest register for which the dense reference distribution is built.
MAX_EXACT_QUBITS = 16

#: Fidelity allowance the approximation oracle asks for.
APPROX_EPSILON = 0.05

#: Pruning cadence for the approximation oracle — far below the default
#: 25 so the fuzzer's short circuits get several pruning rounds.
APPROX_INTERVAL = 4

#: Extra TVD headroom for the *sampled* approximation comparison: two
#: 1024-shot empirical distributions are each a noisy estimate, so the
#: analytic bound gets a finite-shot allowance before a divergence
#: counts as a bug.
APPROX_SAMPLING_SLACK = 0.1

#: Reordering for the reorder and kernel oracles: a low interval and
#: min_nodes so the dynamic trigger actually fires on the fuzzer's short
#: circuits, not just the static layout pass.
_REORDER = ReorderConfig(enabled=True, interval=4, min_nodes=8)

#: The build variants the kernel-vs-python oracle draws from, one per
#: circuit: every build setting that changes what the kernel does
#: between gates, pruning at the approximation oracle's cadence.
_KERNEL_VARIANTS = (
    ("exact", {}),
    (
        f"approximation {APPROX_EPSILON}",
        {
            "approximation": ApproximationConfig(
                epsilon=APPROX_EPSILON, interval=APPROX_INTERVAL
            )
        },
    ),
    ("reorder", {"reorder": _REORDER}),
    ("leftmost", {"scheme": NormalizationScheme.LEFTMOST}),
)

#: Largest register the noisy-vs-dense oracle verifies (its reference
#: evolves a vectorised 2^n x 2^n density matrix — O(4^n) per gate).
NOISE_MAX_QUBITS = 10

#: Node ceiling for the oracle's density build: a mixed state can
#: approach the *square* of the pure DD size, and a handful of hostile
#: fuzz circuits would otherwise eat the whole smoke budget.  A breach
#: skips the circuit (coverage loss, not a failure).  The ceiling is a
#: *time* guard as much as a memory one — the build pays pure-Python
#: matrix multiplies all the way up to the breach — so it is kept low.
NOISE_NODE_LIMIT = 4_000

#: Instruction budget for the verified portion of a circuit.  The
#: noisy build and the dense reference both evolve the *same prefix*,
#: so the check stays exact; every prefix op still gets the full
#: channel-placement treatment, which is what the oracle pins down.
#: Without the cap, a 50-op diagonal-family circuit costs ~10 s of
#: pure-Python superoperator algebra — per circuit, ~200 times per
#: smoke run.
NOISE_MAX_OPERATIONS = 20

#: Tighter instruction budget for registers wider than six qubits,
#: where the dense reference's vec(rho) statevector has >= 16k
#: amplitudes and every Kraus term pays an O(4^n) sweep.
NOISE_WIDE_MAX_OPERATIONS = 10

#: Entangling-gate budget for registers wider than six qubits.  The node
#: ceiling alone is not a time guard: a dense 8-10 qubit mixed state
#: spends minutes of matrix-DD multiplies *before* it breaches the
#: ceiling.  Circuits with more than ``num_qubits`` two-qubit gates at
#: those widths (e.g. the supremacy family's crossing cycles) are
#: skipped up front; GHZ-style single-ladder circuits still run at the
#: full :data:`NOISE_MAX_QUBITS`.
NOISE_WIDE_ENTANGLER_CAP = 1.0

#: Shots each surface draws in the surface-agreement oracle.
SURFACE_SHOTS = 256

#: Depolarizing strength of the surface-agreement oracle's noisy variant.
SURFACE_NOISE = 0.01

#: Instruction budget for circuits wider than six qubits in the
#: surface-agreement oracle.  Each check makes up to six full builds
#: (three surfaces, two requests) and the route does not depend on
#: depth, so wide circuits are checked on a prefix, as in the
#: noisy-vs-dense oracle.
SURFACE_WIDE_MAX_OPERATIONS = 20

#: Tolerance for the noisy-vs-dense probability comparison.  Looser
#: than :data:`ATOL` because a Kraus channel *sums* evolved density
#: matrices: the DD path and the dense reference associate those sums
#: differently, and on cancellation-heavy circuits (the nearzero
#: family) the rounding difference amplifies to ~1e-8 per entry.
NOISE_ATOL = 1e-6


@dataclass(frozen=True)
class Oracle:
    """One differential/metamorphic check between backend configurations."""

    name: str
    description: str
    #: The backend pair (or transform pair) this oracle compares.
    pair: Tuple[str, str]
    #: Whether the oracle applies to a given circuit family.
    applies: Callable[[CircuitFamily], bool] = field(repr=False)
    #: ``run(circuit, rng) -> None | failure detail``.
    run: Callable[[QuantumCircuit, np.random.Generator], Optional[str]] = field(
        repr=False
    )


def _statevector_probabilities(
    circuit: QuantumCircuit, optimize: bool = True
) -> np.ndarray:
    """Dense reference distribution via the statevector simulator."""
    vector = StatevectorSimulator(optimize=optimize).run(circuit)
    return np.abs(vector) ** 2


def _dd_probabilities(circuit: QuantumCircuit, optimize: bool = True) -> np.ndarray:
    """Dense distribution via the decision-diagram simulator."""
    return DDSimulator(optimize=optimize).run(circuit).probabilities()


def _compare_dense(
    first: np.ndarray, second: np.ndarray, label: str, atol: float = ATOL
) -> Optional[str]:
    """Max-abs and TVD comparison of two dense distributions."""
    worst = float(np.abs(first - second).max())
    if worst <= atol:
        return None
    tvd = 0.5 * float(np.abs(first - second).sum())
    return f"{label}: max |Δp| = {worst:.3e}, TVD = {tvd:.3e} (atol {atol:g})"


def _exact_applies(family: CircuitFamily) -> bool:
    """Exact-distribution oracles need unitary circuits of bounded width."""
    return not family.mid_circuit


def _check_dd_vs_statevector(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """DD and dense simulators must produce identical distributions."""
    return _compare_dense(
        _dd_probabilities(circuit),
        _statevector_probabilities(circuit),
        "dd vs statevector",
    )


def _check_compiled_vs_dd(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """The compiled flat-array sampler must match its source DD exactly."""
    state = DDSimulator().run(circuit)
    compiled = DDSampler(state).compiled()
    return _compare_dense(
        compiled.probabilities(), state.probabilities(), "compiled vs dd"
    )


def _check_optimize_metamorphic(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """The compile pipeline must not change the output distribution."""
    return _compare_dense(
        _dd_probabilities(circuit, optimize=True),
        _dd_probabilities(circuit, optimize=False),
        "optimize on vs off",
    )


def _check_qasm_roundtrip(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Export→import must preserve the distribution bit-for-bit."""
    restored = parse_qasm(to_qasm(circuit))
    return _compare_dense(
        _dd_probabilities(restored, optimize=False),
        _dd_probabilities(circuit, optimize=False),
        "qasm round-trip",
    )


def _check_relabel_metamorphic(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Permuting qubit labels must permute the distribution's index bits."""
    num_qubits = circuit.num_qubits
    permutation = [int(q) for q in rng.permutation(num_qubits)]
    relabeled = permute_qubits(circuit, permutation)
    original = _dd_probabilities(circuit)
    permuted = _dd_probabilities(relabeled)
    indices = np.arange(1 << num_qubits)
    mapped = np.zeros_like(indices)
    for qubit, target in enumerate(permutation):
        mapped |= ((indices >> qubit) & 1) << target
    return _compare_dense(
        original, permuted[mapped], f"relabel {permutation}"
    )


def _check_inverse_roundtrip(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Appending the inverse of a suffix must undo exactly that suffix."""
    operations = circuit.operations
    if not operations:
        return None
    length = int(rng.integers(1, len(operations) + 1))
    padded = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_inv")
    for op in operations:
        padded.append(op)
    for op in reversed(operations[-length:]):
        padded.append(op.inverse())
    truncated = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_trunc")
    for op in operations[:-length]:
        truncated.append(op)
    return _compare_dense(
        _dd_probabilities(padded),
        _dd_probabilities(truncated),
        f"inverse round-trip of last {length} ops",
    )


def _check_stabilizer_vs_exact(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Stabilizer samples must be consistent with the exact distribution."""
    state = StabilizerSimulator().run(circuit)
    result = state.sample_result(SAMPLE_SHOTS, rng)
    reference = _statevector_probabilities(circuit)
    outcome = chi_square_gof(result, reference)
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    tvd = total_variation_distance(result, reference)
    return (
        f"stabilizer vs statevector: chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}, TVD={tvd:.3e}"
    )


def _check_dd_sampler_vs_exact(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """DD path-sampled counts must be consistent with the DD distribution."""
    state = DDSimulator().run(circuit)
    result = sample_dd(state, SAMPLE_SHOTS, method="dd", seed=rng)
    outcome = chi_square_gof(result, state.probabilities())
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    return (
        f"dd sampler vs exact: chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}"
    )


def _check_workers_metamorphic(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Chunked parallel sampling must be bit-identical at any worker count."""
    state = DDSimulator().run(circuit)
    seed = int(rng.integers(2**63))
    serial = sample_dd(state, SAMPLE_SHOTS, method="dd", seed=seed, workers=1)
    threaded = sample_dd(state, SAMPLE_SHOTS, method="dd", seed=seed, workers=3)
    if serial.counts == threaded.counts:
        return None
    return (
        "workers 1 vs 3: counts diverged for identical seed "
        f"({serial.distinct_outcomes} vs {threaded.distinct_outcomes} outcomes)"
    )


def _check_branching_vs_per_shot(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Outcome-branching and per-shot execution must match statistically."""
    branching = ShotExecutor(circuit).run(
        PER_SHOT_SAMPLE_SHOTS, seed=int(rng.integers(2**63))
    )
    per_shot = ShotExecutor(circuit).run_per_shot(
        PER_SHOT_SAMPLE_SHOTS, seed=int(rng.integers(2**63))
    )
    outcome = two_sample_chi_square(branching, per_shot)
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    return (
        f"branching vs per-shot: chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}"
    )


def _check_midmeasure_optimize(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Compiling a measure-and-continue circuit must not skew outcomes."""
    optimized = ShotExecutor(circuit, optimize=True).run(
        SAMPLE_SHOTS, seed=int(rng.integers(2**63))
    )
    verbatim = ShotExecutor(circuit, optimize=False).run(
        SAMPLE_SHOTS, seed=int(rng.integers(2**63))
    )
    outcome = two_sample_chi_square(optimized, verbatim)
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    return (
        f"midmeasure optimize on vs off: chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}"
    )


def _check_kernel_vs_python(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """The SoA kernel must match the python reference engine.

    Each circuit draws one build variant (:data:`_KERNEL_VARIANTS`;
    measure-and-continue circuits draw only the scheme).  The contract
    is bit-identity, so the comparison is exact wherever exactness is
    tractable: amplitudes, level order and fidelity bound within
    :data:`MAX_EXACT_QUBITS`, equal-seed counts on measure-and-continue
    circuits (the executor collapses on identical probabilities, so the
    RNG draws coincide).  Wider unitary circuits fall back to a seeded
    two-sample chi-square between the engines' samplers.
    """
    if circuit_has_mid_circuit_measurement(circuit):
        scheme = tuple(NormalizationScheme)[int(rng.integers(2))]
        seed = int(rng.integers(2**63))
        vector = ShotExecutor(circuit, scheme=scheme).run(
            PER_SHOT_SAMPLE_SHOTS, seed=seed
        )
        python = ShotExecutor(circuit, scheme=scheme, kernel="python").run(
            PER_SHOT_SAMPLE_SHOTS, seed=seed
        )
        if vector.counts == python.counts:
            return None
        return (
            f"kernel vs python ({scheme.value}): mid-circuit counts diverged "
            f"at equal seed ({vector.distinct_outcomes} vs "
            f"{python.distinct_outcomes} outcomes)"
        )
    label, settings = _KERNEL_VARIANTS[int(rng.integers(len(_KERNEL_VARIANTS)))]
    vector = DDSimulator(**settings)
    python = DDSimulator(kernel="python", **settings)
    first = vector.run(circuit)
    second = python.run(circuit)
    for stat in ("level_to_qubit", "fidelity_bound"):
        mine, reference = getattr(vector.stats, stat), getattr(python.stats, stat)
        if mine != reference:
            return f"kernel vs python ({label}): {stat} {mine} vs {reference}"
    if circuit.num_qubits <= MAX_EXACT_QUBITS:
        amplitudes = first.to_statevector()
        expected = second.to_statevector()
        if np.array_equal(amplitudes, expected):
            return None
        worst = float(np.abs(amplitudes - expected).max())
        return (
            f"kernel vs python ({label}): amplitudes differ, "
            f"max |Δ| = {worst:.3e}"
        )
    outcome = two_sample_chi_square(
        sample_dd(first, SAMPLE_SHOTS, method="dd", seed=rng),
        sample_dd(second, SAMPLE_SHOTS, method="dd", seed=rng),
    )
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    return (
        f"kernel vs python ({label}): chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}"
    )


def _empirical_tvd(first, second) -> float:
    """TVD between two empirical count distributions."""
    a, b = dict(first.counts), dict(second.counts)
    total_a = sum(a.values())
    total_b = sum(b.values())
    return 0.5 * sum(
        abs(a.get(key, 0) / total_a - b.get(key, 0) / total_b)
        for key in set(a) | set(b)
    )


def _check_approx_vs_exact(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Approximate DD error must stay within its own reported bound.

    The approximation contract (``docs/approximation.md``) promises that
    a build with fidelity budget ε reports ``fidelity_bound ≥ 1−ε`` and
    that the true TVD from the exact distribution is at most
    ``sqrt(1−fidelity_bound)``.  Both halves are checked: dense TVD
    within :data:`MAX_EXACT_QUBITS`, a seeded chi-square/empirical-TVD
    comparison above that width.  Measure-and-continue circuits are out
    of scope: every surface refuses approximation with a mid-circuit
    measurement, which the ``surface-agreement`` oracle checks.
    """
    config = ApproximationConfig(
        epsilon=APPROX_EPSILON, interval=APPROX_INTERVAL
    )
    if circuit.num_qubits <= MAX_EXACT_QUBITS:
        simulator = DDSimulator(approximation=config)
        approx = simulator.run(circuit).probabilities()
        bound = simulator.stats.fidelity_bound
        if bound is None:
            return "approximation enabled but no fidelity bound reported"
        if bound < 1.0 - APPROX_EPSILON - ATOL:
            return (
                f"fidelity bound {bound:.6f} overspends the budget "
                f"1-eps = {1.0 - APPROX_EPSILON}"
            )
        tvd_bound = math.sqrt(max(0.0, 1.0 - bound))
        exact = _statevector_probabilities(circuit)
        tvd = 0.5 * float(np.abs(approx - exact).sum())
        if tvd <= tvd_bound + ATOL:
            return None
        return (
            f"approx vs exact: TVD {tvd:.6f} exceeds the reported bound "
            f"{tvd_bound:.6f} (fidelity >= {bound:.6f})"
        )
    seed = int(rng.integers(2**63))
    approx = simulate_and_sample(
        circuit, SAMPLE_SHOTS, seed=seed, approximation=config
    )
    replay = simulate_and_sample(
        circuit, SAMPLE_SHOTS, seed=seed, approximation=config
    )
    if approx.counts != replay.counts:
        return "approximate sampling is not deterministic at equal seed"
    meta = (approx.metadata.get("build") or {}).get("approximation") or {}
    bound = float(meta.get("fidelity_bound", 1.0))
    if bound < 1.0 - APPROX_EPSILON - ATOL:
        return (
            f"fidelity bound {bound:.6f} overspends the budget "
            f"1-eps = {1.0 - APPROX_EPSILON}"
        )
    exact = simulate_and_sample(circuit, SAMPLE_SHOTS, seed=seed)
    outcome = two_sample_chi_square(approx, exact)
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    # The samplers disagree more than chance allows; that is still fine
    # as long as the divergence is explained by the declared pruning.
    tvd_bound = math.sqrt(max(0.0, 1.0 - bound))
    tvd = _empirical_tvd(approx, exact)
    if tvd <= tvd_bound + APPROX_SAMPLING_SLACK:
        return None
    return (
        f"approx vs exact samples: chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}, empirical TVD "
        f"{tvd:.4f} exceeds bound {tvd_bound:.4f} + slack"
    )


def _check_reorder_vs_fixed(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Reordered builds must describe the same distribution as fixed order.

    The reordering contract (``docs/reordering.md``): equal-seed
    reordered runs are bit-identical to each other, and the reordered
    state — read back through the recorded ``level_to_qubit``
    permutation — is *exactly* the fixed-order distribution (sifting
    only moves levels; it never touches amplitudes).  Within
    :data:`MAX_EXACT_QUBITS` both halves are checked densely, plus a
    chi-square that the reordered sampler actually draws from that
    distribution.
    """
    seed = int(rng.integers(2**63))
    reordered = simulate_and_sample(
        circuit, SAMPLE_SHOTS, seed=seed, reorder=_REORDER
    )
    replay = simulate_and_sample(
        circuit, SAMPLE_SHOTS, seed=seed, reorder=_REORDER
    )
    if reordered.counts != replay.counts:
        return "reordered sampling is not deterministic at equal seed"
    if circuit.num_qubits > MAX_EXACT_QUBITS:
        fixed = simulate_and_sample(circuit, SAMPLE_SHOTS, seed=seed)
        outcome = two_sample_chi_square(reordered, fixed)
        if outcome.p_value >= P_VALUE_FLOOR:
            return None
        return (
            f"reorder vs fixed samples: chi²={outcome.statistic:.2f} "
            f"(dof {outcome.dof}), p={outcome.p_value:.3e}"
        )
    simulator = DDSimulator(reorder=_REORDER)
    state = simulator.run(circuit)
    level_probs = state.probabilities()
    perm = simulator.stats.level_to_qubit or tuple(range(circuit.num_qubits))
    indices = np.arange(1 << circuit.num_qubits)
    targets = np.zeros_like(indices)
    for level, qubit in enumerate(perm):
        targets |= ((indices >> level) & 1) << qubit
    mapped = np.zeros_like(level_probs)
    mapped[targets] = level_probs[indices]
    detail = _compare_dense(
        mapped, _dd_probabilities(circuit), f"reorder perm={list(perm)}"
    )
    if detail is not None:
        return detail
    outcome = chi_square_gof(reordered, mapped)
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    return (
        f"reordered samples vs exact: chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}"
    )


def _check_noisy_vs_dense(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Density-DD noise must match the dense reference exactly.

    Three clauses of the noise contract (``docs/noise.md``):

    * the compiled noisy sampler's distribution equals
      :func:`~repro.noise.noisy_probabilities_dense` to
      :data:`NOISE_ATOL` (same channel placement, same readout folding)
      within :data:`NOISE_MAX_QUBITS`;
    * all-zero strengths are bit-identical to the exact pure-state path
      at equal seed (the noise→exact limit);
    * noisy sampling is deterministic at equal seed, and the draws are
      chi-square-consistent with the reference distribution.

    Circuits whose mixed state outgrows :data:`NOISE_NODE_LIMIT` are
    skipped (the dense reference would still agree, but the fuzz budget
    does not cover quadratic-size density builds).  Long circuits are
    verified on their first :data:`NOISE_MAX_OPERATIONS` instructions
    (:data:`NOISE_WIDE_MAX_OPERATIONS` beyond six qubits): both sides
    evolve the same prefix, so the comparison stays exact and every
    prefix op still exercises the channel-placement contract.
    """
    from ..noise import NoiseModel, noisy_probabilities_dense

    cap = (
        NOISE_MAX_OPERATIONS
        if circuit.num_qubits <= 6
        else NOISE_WIDE_MAX_OPERATIONS
    )
    circuit = _prefix(circuit, cap)
    if not _noise_fits(circuit):
        return None
    seed = int(rng.integers(2**63))
    if not circuit_has_mid_circuit_measurement(circuit):
        zero = simulate_and_sample(
            circuit, SAMPLE_SHOTS, seed=seed, noise=NoiseModel()
        )
        exact = simulate_and_sample(circuit, SAMPLE_SHOTS, seed=seed)
        if zero.counts != exact.counts:
            return (
                "strength-0 noise is not bit-identical to the exact path "
                "at equal seed"
            )
    noise = NoiseModel(
        depolarizing=float(rng.uniform(0.0, 0.08)),
        amplitude_damping=float(rng.uniform(0.0, 0.08)),
        phase_damping=float(rng.uniform(0.0, 0.08)),
        readout_p01=float(rng.uniform(0.0, 0.04)),
        readout_p10=float(rng.uniform(0.0, 0.04)),
    )
    try:
        compiled, _ = build_artifact(
            circuit, BuildSpec.of(noise=noise), node_limit=NOISE_NODE_LIMIT
        )
    except MemoryError:
        return None
    reference = noisy_probabilities_dense(circuit, noise)
    detail = _compare_dense(
        compiled.probabilities(),
        reference,
        f"noisy dd vs dense ({noise.describe()})",
        atol=NOISE_ATOL,
    )
    if detail is not None:
        return detail
    first = compiled.sample(SAMPLE_SHOTS, np.random.default_rng(seed))
    replay = compiled.sample(SAMPLE_SHOTS, np.random.default_rng(seed))
    if not np.array_equal(first, replay):
        return "noisy sampling is not deterministic at equal seed"
    from ..core.results import SampleResult

    result = SampleResult.from_samples(circuit.num_qubits, first, method="dd")
    outcome = chi_square_gof(result, reference)
    if outcome.p_value >= P_VALUE_FLOOR:
        return None
    return (
        f"noisy samples vs dense: chi²={outcome.statistic:.2f} "
        f"(dof {outcome.dof}), p={outcome.p_value:.3e}"
    )


def _prefix(circuit: QuantumCircuit, size: int) -> QuantumCircuit:
    """``circuit`` cut to its first ``size`` instructions."""
    if len(circuit.instructions) <= size:
        return circuit
    prefix = QuantumCircuit(circuit.num_qubits)
    for instruction in circuit.instructions[:size]:
        prefix.append(instruction)
    return prefix


def _noise_fits(circuit: QuantumCircuit) -> bool:
    """Whether a noisy build of ``circuit`` stays inside the fuzz budget.

    At most :data:`NOISE_MAX_QUBITS` qubits and
    :data:`NOISE_MAX_OPERATIONS` instructions; beyond six qubits at most
    :data:`NOISE_WIDE_MAX_OPERATIONS` instructions and
    :data:`NOISE_WIDE_ENTANGLER_CAP` two-qubit gates per qubit.
    """
    size = len(circuit.instructions)
    if circuit.num_qubits <= 6:
        return size <= NOISE_MAX_OPERATIONS
    entanglers = sum(1 for op in circuit.operations if len(op.qubits) > 1)
    return (
        circuit.num_qubits <= NOISE_MAX_QUBITS
        and size <= NOISE_WIDE_MAX_OPERATIONS
        and entanglers <= NOISE_WIDE_ENTANGLER_CAP * circuit.num_qubits
    )


def _surface_variant(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Dict[str, Any]:
    """One drawn request variant: a method, an initial state, workers or a feature."""
    kind = int(rng.integers(4))
    if kind == 0:
        methods = DD_METHODS + VECTOR_METHODS
        return {"method": methods[int(rng.integers(len(methods)))]}
    if kind == 1:
        return {"initial_state": int(rng.integers(1 << circuit.num_qubits))}
    if kind == 2:
        return {"workers": 2}
    features: List[Dict[str, Any]] = [
        {"approximation": APPROX_EPSILON},
        {"reorder": True},
    ]
    if _noise_fits(circuit):
        features.append({"noise_model": SURFACE_NOISE})
    return features[int(rng.integers(len(features)))]


def _check_surfaces_agree(
    circuit: QuantumCircuit, rng: np.random.Generator
) -> Optional[str]:
    """Library, service and JSONL batch must give one answer per request.

    The circuit goes through QASM once (beyond six qubits, its first
    :data:`SURFACE_WIDE_MAX_OPERATIONS` instructions); then
    ``simulate_and_sample``, :meth:`SamplingService.sample` and
    ``run_batch`` (replaying the same records on the warm service) each
    serve the default request and one drawn variant
    (:func:`_surface_variant`) at equal seed.  Either all three accept
    with equal counts, or all three refuse with the same message.  An
    accepted request must also be served from the same artifact: the
    library's and the service's ``metadata["build"]`` agree on the
    fidelity bound and ``level_to_qubit`` (:func:`_build_facts`), and so
    do both responses' ``fidelity_bound``.
    """
    if circuit.num_qubits > 6:
        circuit = _prefix(circuit, SURFACE_WIDE_MAX_OPERATIONS)
    qasm = to_qasm(circuit)
    parsed = parse_qasm(qasm)
    seed = int(rng.integers(2**32))
    records = [
        {"shots": SURFACE_SHOTS, "seed": seed},
        {"shots": SURFACE_SHOTS, "seed": seed, **_surface_variant(parsed, rng)},
    ]
    library = []
    for record in records:
        kwargs = {
            "noise" if name == "noise_model" else name: value
            for name, value in record.items()
        }
        try:
            result = simulate_and_sample(parsed, **kwargs)
        except ReproError as error:
            library.append((str(error), None))
        else:
            library.append((result.bitstring_counts(), _build_facts(result)))
    lines = "".join(
        json.dumps({"circuit": {"qasm": qasm}, **record}) + "\n" for record in records
    )
    sink = io.StringIO()
    with SamplingService() as service:
        served = [service.sample(SamplingRequest(parsed, **record)) for record in records]
        run_batch(service, io.StringIO(lines), sink)
    batch = [json.loads(line) for line in sink.getvalue().splitlines()]
    for record, (answer, build), response, line in zip(records, library, served, batch):
        others = [
            reply["counts"] if reply["status"] == "ok" else reply["error"]
            for reply in (response.to_dict(), line)
        ]
        if others != [answer, answer]:
            return (
                f"surfaces disagree on {record}: library "
                f"{_surface_summary(answer)}, service "
                f"{_surface_summary(others[0])}, batch {_surface_summary(others[1])}"
            )
        if not response.ok:
            continue
        served_build = (
            _build_facts(response.result),
            response.fidelity_bound,
            line.get("fidelity_bound"),
        )
        if served_build != (build, build[0], build[0]):
            return (
                f"surfaces disagree on {record}'s artifact: library (fidelity "
                f"bound, level_to_qubit) {build}, service {served_build[0]}, "
                f"response fidelity_bound {served_build[1]} (batch "
                f"{served_build[2]})"
            )
    return None


def _build_facts(result: Any) -> Tuple[Optional[float], Optional[List[int]]]:
    """A result's fidelity bound and ``level_to_qubit`` from ``metadata["build"]``."""
    build = result.metadata.get("build") or {}
    return (
        (build.get("approximation") or {}).get("fidelity_bound"),
        (build.get("reorder") or {}).get("level_to_qubit"),
    )


def _surface_summary(answer: Any) -> str:
    """A one-line view of a surface's answer (counts or refusal message)."""
    if isinstance(answer, str):
        return f"refused {answer!r}"
    top = sorted(answer.items(), key=lambda item: -item[1])[:3]
    return f"{len(answer)} outcomes, top {top}"


def _wrap(
    run: Callable[[QuantumCircuit, np.random.Generator], Optional[str]],
) -> Callable[[QuantumCircuit, np.random.Generator], Optional[str]]:
    """Convert backend exceptions into failure details (crash = bug)."""

    def guarded(
        circuit: QuantumCircuit, rng: np.random.Generator
    ) -> Optional[str]:
        try:
            return run(circuit, rng)
        except Exception as error:  # noqa: BLE001 - any crash is a finding
            return f"raised {type(error).__name__}: {error}"

    guarded.__doc__ = run.__doc__
    return guarded


ORACLES: Dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            name="dd-vs-statevector",
            description="exact distribution: DD vs dense simulator",
            pair=("dd", "statevector"),
            applies=_exact_applies,
            run=_wrap(_check_dd_vs_statevector),
        ),
        Oracle(
            name="compiled-vs-dd",
            description="exact distribution: compiled sampler vs DD",
            pair=("compiled-dd", "dd"),
            applies=_exact_applies,
            run=_wrap(_check_compiled_vs_dd),
        ),
        Oracle(
            name="optimize-onoff",
            description="metamorphic: compile pipeline on vs off",
            pair=("dd+optimize", "dd"),
            applies=_exact_applies,
            run=_wrap(_check_optimize_metamorphic),
        ),
        Oracle(
            name="qasm-roundtrip",
            description="metamorphic: QASM export → import",
            pair=("dd", "dd+qasm"),
            applies=_exact_applies,
            run=_wrap(_check_qasm_roundtrip),
        ),
        Oracle(
            name="relabel",
            description="metamorphic: qubit relabeling permutes the distribution",
            pair=("dd", "dd+relabel"),
            applies=_exact_applies,
            run=_wrap(_check_relabel_metamorphic),
        ),
        Oracle(
            name="inverse-roundtrip",
            description="metamorphic: suffix followed by its inverse vanishes",
            pair=("dd", "dd+inverse"),
            applies=_exact_applies,
            run=_wrap(_check_inverse_roundtrip),
        ),
        Oracle(
            name="kernel-vs-python",
            description="bit-exact: SoA kernel vs python engine, one build variant",
            pair=("dd@vector", "dd@python"),
            applies=lambda family: True,
            run=_wrap(_check_kernel_vs_python),
        ),
        Oracle(
            name="reorder-vs-fixed",
            description="exact + chi-square: reordered DD vs fixed order",
            pair=("dd+reorder", "dd"),
            applies=lambda family: family.reorder,
            run=_wrap(_check_reorder_vs_fixed),
        ),
        Oracle(
            name="approx-vs-exact",
            description="bound check: approximate DD error within reported ε",
            pair=("dd+approx", "statevector"),
            applies=_exact_applies,
            run=_wrap(_check_approx_vs_exact),
        ),
        Oracle(
            name="noisy-vs-dense",
            description="exact distribution: noisy density DD vs dense reference",
            pair=("density-dd", "dense-density"),
            applies=lambda family: True,
            run=_wrap(_check_noisy_vs_dense),
        ),
        Oracle(
            name="stabilizer-vs-exact",
            description="chi-square: stabilizer samples vs dense distribution",
            pair=("stabilizer", "statevector"),
            applies=lambda family: family.clifford and not family.mid_circuit,
            run=_wrap(_check_stabilizer_vs_exact),
        ),
        Oracle(
            name="sampler-vs-exact",
            description="chi-square: DD path samples vs DD distribution",
            pair=("dd-sampler", "dd"),
            applies=_exact_applies,
            run=_wrap(_check_dd_sampler_vs_exact),
        ),
        Oracle(
            name="workers",
            description="metamorphic: worker count 1 vs 3 is bit-identical",
            pair=("dd-sampler@1", "dd-sampler@3"),
            applies=_exact_applies,
            run=_wrap(_check_workers_metamorphic),
        ),
        Oracle(
            name="branching-vs-pershot",
            description="chi-square: outcome branching vs per-shot execution",
            pair=("shot-executor:branching", "shot-executor:per-shot"),
            applies=lambda family: family.mid_circuit,
            run=_wrap(_check_branching_vs_per_shot),
        ),
        Oracle(
            name="midmeasure-optimize",
            description="chi-square: ShotExecutor optimize on vs off",
            pair=("shot-executor+optimize", "shot-executor"),
            applies=lambda family: family.mid_circuit,
            run=_wrap(_check_midmeasure_optimize),
        ),
        Oracle(
            name="surface-agreement",
            description="equal seed: library, service and JSONL batch answers",
            pair=("library", "service"),
            applies=lambda family: True,
            run=_wrap(_check_surfaces_agree),
        ),
    )
}


def get_oracle(name: str) -> Oracle:
    """Look up an oracle by name, raising :class:`ReproError` when unknown."""
    try:
        return ORACLES[name]
    except KeyError:
        raise ReproError(
            f"unknown oracle {name!r}; available: {sorted(ORACLES)}"
        ) from None


def applicable_oracles(family: CircuitFamily) -> Tuple[Oracle, ...]:
    """The oracles that apply to circuits of ``family``, in registry order."""
    return tuple(
        oracle for oracle in ORACLES.values() if oracle.applies(family)
    )
