"""Command-line front end for the differential fuzzer.

Examples::

    python -m repro.fuzz --max-circuits 200 --seed 7     # smoke budget
    python -m repro.fuzz --time-budget 3600              # long soak
    python -m repro.fuzz --families clifford,nearzero
    python -m repro.fuzz --self-check                    # mutation test

``--self-check`` deliberately injects five known bugs — a normalisation
skew in the DD package, an over-pruning approximation that lies about
its fidelity bound, a library front door that samples
measure-and-continue circuits from their final unitary state again, a
channel superoperator built without its conjugate, and an add memo
whose hits skip the rescale by the left weight — and verifies the
fuzzer catches all five (and minimizes the first to a handful of gates)
— proof the oracles have teeth (documented in ``docs/fuzzing.md``).
Exit status is non-zero when failures are found (or, under
``--self-check``, when an injected bug is *not* found).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

from .. import telemetry as _telemetry
from ..circuit.circuit import QuantumCircuit
from ..circuit.operations import Measurement
from ..dd import approximation as _dd_approximation
from ..dd import package as _dd_package
from ..noise.channels import KrausChannel
from ..perf.kernel import KernelEngine
from . import oracles as _oracles
from .families import FAMILIES
from .runner import FuzzConfig, FuzzReport, run_fuzz

#: The injected self-check bug minimizes to at most this many instructions.
SELF_CHECK_MAX_GATES = 8


def _build_parser() -> argparse.ArgumentParser:
    """The fuzz CLI's argument parser (importable for the docs checker)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing of the simulation backends",
    )
    parser.add_argument(
        "--families",
        default=",".join(FAMILIES),
        help=f"comma-separated family names (default: all of {sorted(FAMILIES)})",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--max-circuits",
        type=int,
        default=200,
        help="stop after this many circuits (0 = unlimited)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this much wall-clock time",
    )
    parser.add_argument(
        "--corpus-dir",
        type=Path,
        default=None,
        help="where to write reproducers (default: tests/corpus/)",
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="report failures without delta-debugging them",
    )
    parser.add_argument(
        "--no-save",
        action="store_true",
        help="do not serialize reproducers to the corpus",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="export a telemetry JSONL trace of the run",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="inject known bugs and verify the fuzzer catches each one",
    )
    return parser


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Build and evaluate the command-line interface."""
    return _build_parser().parse_args(argv)


def _config_from_args(args: argparse.Namespace) -> FuzzConfig:
    """Translate parsed CLI flags into a :class:`FuzzConfig`."""
    return FuzzConfig(
        families=tuple(
            name.strip() for name in args.families.split(",") if name.strip()
        ),
        seed=args.seed,
        max_circuits=args.max_circuits or None,
        time_budget_seconds=args.time_budget,
        minimize=not args.no_minimize,
        corpus_dir=args.corpus_dir,
        save_failures=not args.no_save,
    )


def _skewed_normalize(weights, scheme, tolerance=1e-12):
    """The injected bug: skew the first child weight by 0.1 percent.

    Only kicks in when both children are nonzero, so trivial product
    states stay exact and the failure needs genuine superposition —
    exactly the kind of subtle drift the differential oracles exist for.
    """
    normalised, factor = _ORIGINAL_NORMALIZE(weights, scheme, tolerance)
    if all(abs(w) > tolerance for w in normalised):
        skewed = (normalised[0] * (1.0 + 1e-3),) + tuple(normalised[1:])
        return skewed, factor
    return normalised, factor


_ORIGINAL_NORMALIZE = _dd_package.normalize_weights


def _overpruning_prune(state, budget, package=None):
    """The planted approximation bug: prune far beyond the allowance
    while reporting only 1 percent of the removed mass, so the tracked
    fidelity bound claims near-exactness the state no longer has.  The
    ``approx-vs-exact`` oracle must notice the true TVD blowing through
    the reported bound.
    """
    result = _ORIGINAL_PRUNE(
        state, min(0.5, budget * 25.0 + 0.02), package=package
    )
    return dataclasses.replace(result, removed_mass=result.removed_mass * 0.01)


_ORIGINAL_PRUNE = _dd_approximation.prune_low_contribution


def _unrouted_simulate_and_sample(circuit, shots, **kwargs):
    """The planted routing bug: the library front door drops the
    circuit's measurements, so a measure-and-continue circuit is sampled
    from its final unitary state again (as before the one route) while
    the service still runs it shot by shot.  The ``surface-agreement``
    oracle must notice the library drifting from the service.
    """
    unitary = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for instruction in circuit:
        if not isinstance(instruction, Measurement):
            unitary.append(instruction)
    return _ORIGINAL_SIMULATE(unitary, shots, **kwargs)


_ORIGINAL_SIMULATE = _oracles.simulate_and_sample


def _unconjugated_superoperator(channel):
    """The planted channel bug: the superoperator built without the
    conjugate, ``sum K ⊗ K``, so a channel with a complex Kraus operator
    (depolarizing's ``Y``) maps ``rho`` through ``K rho K^T`` instead of
    ``K rho K†``.  The ``noisy-vs-dense`` oracle must notice the density
    path drifting from the dense reference.
    """
    total = sum(np.kron(kraus, kraus) for kraus in channel.arrays)
    return tuple(tuple(complex(value) for value in row) for row in total)


_ORIGINAL_SUPEROPERATOR = KrausChannel.superoperator


def _unscaled_memo_add(self, var, a, b):
    """The planted memo bug: an add-memo hit returns the sum computed
    with the left weight taken as 1, without rescaling it by that
    weight.  The memo key is scale-invariant, so the hit is wrong
    whenever the left weight is not 1; the ``dd-vs-statevector`` oracle
    must notice the SoA kernel's states drifting from the dense ones.
    """
    (_ca, wa), (_cb, wb) = a, b
    if var >= 0 and wa != 0 and wb != 0:
        cached = self._add_cache.get((var, a[0], b[0], wb / wa))
        if cached is not None:
            return cached
    return _ORIGINAL_KERNEL_ADD(self, var, a, b)


_ORIGINAL_KERNEL_ADD = KernelEngine._add


def _check_normalize_mutation(args: argparse.Namespace) -> int:
    """The fuzzer must catch the skew bug and minimize it tightly."""
    with tempfile.TemporaryDirectory() as scratch:
        config = FuzzConfig(
            families=("clifford", "diagonal"),
            seed=args.seed,
            max_circuits=20,
            corpus_dir=Path(scratch),
        )
        _dd_package.normalize_weights = _skewed_normalize
        try:
            report = run_fuzz(config)
        finally:
            _dd_package.normalize_weights = _ORIGINAL_NORMALIZE
    if not report.failures:
        print("self-check FAILED: injected normalisation bug went undetected")
        return 1
    smallest = min(len(f.circuit) for f in report.failures)
    print(
        f"self-check passed: injected bug caught {len(report.failures)} time(s); "
        f"smallest reproducer has {smallest} instruction(s)"
    )
    if smallest > SELF_CHECK_MAX_GATES:
        print(
            f"self-check FAILED: smallest reproducer ({smallest} gates) "
            f"exceeds the {SELF_CHECK_MAX_GATES}-gate bound"
        )
        return 1
    return 0


def _check_overpruning_mutation(args: argparse.Namespace) -> int:
    """The approx-vs-exact oracle must catch a lying fidelity bound."""
    with tempfile.TemporaryDirectory() as scratch:
        config = FuzzConfig(
            families=("diagonal", "nearzero"),
            seed=args.seed,
            max_circuits=20,
            minimize=False,
            corpus_dir=Path(scratch),
        )
        _dd_approximation.prune_low_contribution = _overpruning_prune
        try:
            report = run_fuzz(config)
        finally:
            _dd_approximation.prune_low_contribution = _ORIGINAL_PRUNE
    caught = [f for f in report.failures if f.oracle == "approx-vs-exact"]
    if not caught:
        print(
            "self-check FAILED: planted over-pruning bug went undetected "
            "by the approx-vs-exact oracle"
        )
        return 1
    print(
        "self-check passed: planted over-pruning bug caught "
        f"{len(caught)} time(s) by approx-vs-exact"
    )
    return 0


def _check_route_mutation(args: argparse.Namespace) -> int:
    """The surface-agreement oracle must catch the library skipping the route."""
    with tempfile.TemporaryDirectory() as scratch:
        config = FuzzConfig(
            families=("midmeasure",),
            seed=args.seed,
            max_circuits=4,
            minimize=False,
            corpus_dir=Path(scratch),
        )
        _oracles.simulate_and_sample = _unrouted_simulate_and_sample
        try:
            report = run_fuzz(config)
        finally:
            _oracles.simulate_and_sample = _ORIGINAL_SIMULATE
    caught = [f for f in report.failures if f.oracle == "surface-agreement"]
    if not caught:
        print(
            "self-check FAILED: planted routing bug went undetected by the "
            "surface-agreement oracle on the midmeasure family"
        )
        return 1
    print(
        "self-check passed: planted routing bug caught "
        f"{len(caught)} time(s) by surface-agreement on the midmeasure family"
    )
    return 0


def _check_superoperator_mutation(args: argparse.Namespace) -> int:
    """The noisy-vs-dense oracle must catch an unconjugated superoperator."""
    with tempfile.TemporaryDirectory() as scratch:
        config = FuzzConfig(
            families=("clifford",),
            seed=args.seed,
            max_circuits=4,
            minimize=False,
            corpus_dir=Path(scratch),
        )
        KrausChannel.superoperator = property(_unconjugated_superoperator)
        try:
            report = run_fuzz(config)
        finally:
            KrausChannel.superoperator = _ORIGINAL_SUPEROPERATOR
    caught = [f for f in report.failures if f.oracle == "noisy-vs-dense"]
    if not caught:
        print(
            "self-check FAILED: planted superoperator bug went undetected "
            "by the noisy-vs-dense oracle"
        )
        return 1
    print(
        "self-check passed: planted superoperator bug caught "
        f"{len(caught)} time(s) by noisy-vs-dense"
    )
    return 0


def _check_memo_mutation(args: argparse.Namespace) -> int:
    """The dd-vs-statevector oracle must catch an unrescaled memo hit."""
    with tempfile.TemporaryDirectory() as scratch:
        config = FuzzConfig(
            families=("clifford",),
            seed=args.seed,
            max_circuits=4,
            minimize=False,
            corpus_dir=Path(scratch),
        )
        KernelEngine._add = _unscaled_memo_add
        try:
            report = run_fuzz(config)
        finally:
            KernelEngine._add = _ORIGINAL_KERNEL_ADD
    caught = [f for f in report.failures if f.oracle == "dd-vs-statevector"]
    if not caught:
        print(
            "self-check FAILED: planted add-memo bug went undetected "
            "by the dd-vs-statevector oracle"
        )
        return 1
    print(
        "self-check passed: planted add-memo bug caught "
        f"{len(caught)} time(s) by dd-vs-statevector"
    )
    return 0


def _run_self_check(args: argparse.Namespace) -> int:
    """Mutation tests: each planted bug must be found by its oracle."""
    return (
        _check_normalize_mutation(args)
        | _check_overpruning_mutation(args)
        | _check_route_mutation(args)
        | _check_superoperator_mutation(args)
        | _check_memo_mutation(args)
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _parse_args(argv)
    if args.self_check:
        return _run_self_check(args)
    config = _config_from_args(args)
    session = _telemetry.Telemetry() if args.trace else None
    report: FuzzReport = run_fuzz(config, telemetry=session)
    print(report.summary())
    if session is not None:
        session.export(str(args.trace))
        print(f"trace written to {args.trace}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
