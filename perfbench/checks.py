"""Answer checks: every response is compared with an independent reference.

* Exact circuits (compiled artifact and reordered builds): a chi-square
  goodness-of-fit test of the counts against the dense
  ``StatevectorSimulator`` distribution.
* Noisy circuits: the same test against the dense density-matrix
  reference :func:`repro.noise.reference.noisy_probabilities_dense`.
* Mid-circuit-measurement circuits (ending in a full measurement): the
  same dense density reference, with each mid-circuit measurement as a
  dephasing channel.
* Approximate circuits: the total variation distance to the exact
  distribution must stay within ``sqrt(1 - F)`` for the fidelity bound
  ``F`` the response reports, plus a sampling allowance.
* A probe subset (the first request of every family) must be
  bit-identical to an in-process ``simulate_and_sample`` (or
  ``ShotExecutor`` for mid-circuit measurement) at the same seed.

A response that fails its check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.circuit.qasm import parse_qasm
from repro.core.indistinguishability import chi_square_gof, total_variation_distance
from repro.core.shot_executor import ShotExecutor
from repro.core.weak_sim import simulate_and_sample
from repro.noise.model import NoiseModel
from repro.noise.reference import noisy_probabilities_dense
from repro.simulators.statevector import StatevectorSimulator

from workloads import Request

__all__ = [
    "P_VALUE_FLOOR",
    "References",
    "check_answer",
    "counts_digest",
    "decode",
    "parse_counts",
    "probe_counts",
]

#: Smallest accepted goodness-of-fit p-value.  The request seeds are
#: fixed by ``--seed``, so a run's verdicts are reproducible; at this
#: floor a correct sampler fails one test in a million, while a wrong
#: distribution at these shot counts scores far below it.
P_VALUE_FLOOR = 1e-6

#: Fewest expected shots in a chi-square bin.  Below it the chi-square
#: approximation breaks: one shot landing in a pooled tail that expects
#: 0.05 would read p ~ 1e-16 although it happens once in 700 requests.
MIN_EXPECTED = 5.0

#: An observed outcome whose reference probability is below this is
#: impossible (the dense references leave ~1e-30 dust on true zeros).
IMPOSSIBLE = 1e-12


def counts_digest(counts: Dict[int, int]) -> str:
    """Order-independent digest of a counts table (bit-identity checks)."""
    outcomes = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    frequencies = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    order = np.argsort(outcomes)
    hasher = hashlib.sha256(outcomes[order].tobytes())
    hasher.update(frequencies[order].tobytes())
    return hasher.hexdigest()


class References:
    """Dense reference distributions, computed once per distinct request."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, int, str], np.ndarray] = {}
        self._bins: Dict[Tuple[Tuple[str, int, str], int], Tuple[np.ndarray, np.ndarray]] = {}

    def probabilities(self, request: Request) -> np.ndarray:
        """The exact sampling distribution of ``request`` over ``2^n`` outcomes."""
        key = request.identity
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        circuit = parse_qasm(request.qasm)
        if request.kind in ("noisy", "mcm"):
            noise = NoiseModel.from_value(request.options.get("noise_model"))
            probabilities = noisy_probabilities_dense(
                circuit, noise, initial_state=request.initial_state
            )
        else:
            state = StatevectorSimulator(optimize=False).run(
                circuit, initial_state=request.initial_state
            )
            probabilities = np.abs(state) ** 2
        self._cache[key] = probabilities
        return probabilities

    def bins(self, request: Request) -> Tuple[np.ndarray, np.ndarray]:
        """Chi-square bins: ``(bin of each outcome, probability of each bin)``.

        Outcomes are taken in ascending probability and pooled until a
        bin expects ``MIN_EXPECTED`` shots; a short bin joins the kept
        bin before it (the first ones join the first kept bin).  The bins
        depend on the reference alone, so the test stays a valid
        chi-square test, and pooling keeps power on flat distributions
        where single outcomes expect only a shot or two.
        """
        key = (request.identity, request.shots)
        cached = self._bins.get(key)
        if cached is not None:
            return cached
        probabilities = self.probabilities(request)
        order = np.argsort(probabilities, kind="stable")
        expected = probabilities[order] * request.shots
        steps = np.floor(np.cumsum(expected) / MIN_EXPECTED)
        groups = np.unique(steps, return_inverse=True)[1]
        kept = np.bincount(groups, weights=expected) >= MIN_EXPECTED
        merged = np.maximum(np.cumsum(kept) - 1, 0)
        bin_of = np.empty(len(probabilities), dtype=np.int64)
        bin_of[order] = merged[groups]
        cached = (bin_of, np.bincount(bin_of, weights=probabilities))
        self._bins[key] = cached
        return cached


def check_answer(
    request: Request,
    payload: Dict[str, Any],
    counts: Dict[int, int],
    references: References,
) -> Optional[str]:
    """``None`` when the response is a correct answer, else the reason."""
    if payload.get("status") != "ok":
        return f"status {payload.get('status')!r}: {payload.get('error')}"
    if sum(counts.values()) != request.shots:
        return f"{sum(counts.values())} shots returned, {request.shots} asked"
    probabilities = references.probabilities(request)
    if payload.get("num_qubits") != int(math.log2(len(probabilities))):
        return f"num_qubits {payload.get('num_qubits')} is wrong"
    if request.kind == "approx":
        fidelity = payload.get("fidelity_bound")
        if fidelity is None:
            return "approximate response reports no fidelity_bound"
        tvd = total_variation_distance(counts, probabilities)
        limit = math.sqrt(max(0.0, 1.0 - float(fidelity))) + _sampling_allowance(
            probabilities, request.shots
        )
        if tvd > limit:
            return f"TVD {tvd:.4f} exceeds the fidelity-derived limit {limit:.4f}"
        return None
    outcomes = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    impossible = outcomes[probabilities[outcomes] < IMPOSSIBLE]
    if impossible.size:
        return f"sampled outcome {int(impossible[0])}, which has probability 0"
    bin_of, bin_probabilities = references.bins(request)
    observed = np.bincount(
        bin_of[outcomes],
        weights=np.fromiter(counts.values(), dtype=np.float64, count=len(counts)),
        minlength=len(bin_probabilities),
    )
    result = chi_square_gof(
        {index: int(count) for index, count in enumerate(observed)},
        bin_probabilities,
        min_expected=0.0,
    )
    if not result.p_value >= P_VALUE_FLOOR:
        return f"goodness of fit p={result.p_value:.3g} (chi2={result.statistic:.1f})"
    return None


def _sampling_allowance(probabilities: np.ndarray, shots: int) -> float:
    """Four times the expected-TVD bound ``0.5 * sum(sqrt(p(1-p)/shots))``."""
    spread = np.sqrt(probabilities * (1.0 - probabilities) / shots)
    return 2.0 * float(spread.sum())


def probe_counts(request: Request) -> Dict[int, int]:
    """Counts from the in-process library path at the request's seed."""
    circuit = parse_qasm(request.qasm)
    if request.kind == "mcm":
        return ShotExecutor(circuit).run(request.shots, seed=request.seed).counts
    return simulate_and_sample(
        circuit,
        request.shots,
        method="dd",
        seed=request.seed,
        initial_state=request.initial_state,
        approximation=request.options.get("approximation"),
        reorder=request.options.get("reorder"),
        noise=request.options.get("noise_model"),
    ).counts


def parse_counts(payload: Dict[str, Any]) -> Dict[int, int]:
    """The response's bitstring counts as integer outcomes."""
    return {int(bits, 2): int(count) for bits, count in (payload.get("counts") or {}).items()}


def decode(body: bytes) -> Dict[str, Any]:
    """A response body as a dict (``{}`` when it is not a JSON object)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}
