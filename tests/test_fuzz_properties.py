"""Property tests tying the fuzzer's generators to the verify layer.

Two hundred seeded (circuit, optimized-circuit) pairs must satisfy both
equivalence checkers — the exact DD construction (``check_equivalence``)
and random-stimuli falsification (``random_stimuli_check``) — and the
two must agree with each other.  A chi-square cross-backend test covers
the mid-circuit-measurement family the unitary checkers cannot.
"""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.compile.pipeline import optimize_circuit
from repro.core.indistinguishability import two_sample_chi_square
from repro.core.shot_executor import ShotExecutor
from repro.fuzz.families import generate
from repro.verify.equivalence import check_equivalence, random_stimuli_check

#: (family, seed) material for the 200 seeded optimize-on/off pairs.
#: Small unitary families keep the exact checker fast.
PAIRS = [
    (family, seed)
    for family in ("clifford", "diagonal", "nearzero")
    for seed in range(67)
][:200]


@pytest.mark.parametrize("family,seed", PAIRS)
def test_optimize_pairs_pass_both_equivalence_checks(family, seed):
    circuit = generate(family, (31, seed))
    optimized, _ = optimize_circuit(circuit)
    exact = check_equivalence(circuit, optimized)
    stimuli = random_stimuli_check(circuit, optimized, num_stimuli=4, seed=seed)
    assert exact.equivalent, f"{family}/{seed}: exact checker disagrees"
    assert stimuli.equivalent, f"{family}/{seed}: stimuli checker disagrees"
    assert exact.equivalent == stimuli.equivalent


def test_checkers_agree_on_inequivalent_pair():
    # A bit flip on the output of a basis-preserving circuit is visible
    # to both the exact checker and every computational-basis stimulus.
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    broken = circuit.copy()
    broken.x(0)
    exact = check_equivalence(circuit, broken)
    stimuli = random_stimuli_check(circuit, broken, num_stimuli=8, seed=0)
    assert not exact.equivalent
    assert not stimuli.equivalent


@pytest.mark.parametrize("seed", range(3))
def test_midmeasure_cross_backend_chi_square(seed):
    """Branching and per-shot execution agree on measure-and-continue."""
    circuit = generate("midmeasure", (47, seed))
    branching = ShotExecutor(circuit).run(400, seed=seed)
    per_shot = ShotExecutor(circuit).run_per_shot(400, seed=seed + 1000)
    outcome = two_sample_chi_square(branching, per_shot)
    assert outcome.p_value >= 1e-6, (
        f"seed {seed}: chi²={outcome.statistic:.2f}, p={outcome.p_value:.3e}"
    )
