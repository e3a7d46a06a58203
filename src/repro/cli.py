"""``repro-sample``: weak simulation of OpenQASM files from the shell.

The user-facing simulator binary: read a circuit, draw shots, print (or
save) the counts.  Mirrors how one uses a cloud quantum backend::

    repro-sample bell.qasm --shots 10000 --method dd --seed 7
    repro-sample grover.qasm --shots 1000 --json results.json
    repro-sample circuit.qasm --draw          # just show the circuit

Exit status is 0 on success, 2 for bad input.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .circuit.drawer import draw
from .circuit.qasm import parse_qasm
from .core.weak_sim import DD_METHODS, VECTOR_METHODS, simulate_and_sample
from .exceptions import ReproError
from .simulators.build_spec import BuildSpec

__all__ = ["main", "non_negative_int"]


def non_negative_int(text: str) -> int:
    """argparse type for counts that must be ``>= 0`` (e.g. ``--top``)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sample",
        description="Weak simulation of an OpenQASM 2.0 circuit: produce "
        "measurement samples like a physical quantum computer.",
    )
    parser.add_argument("qasm_file", help="path to the OpenQASM 2.0 circuit")
    parser.add_argument("--shots", type=int, default=1024, help="samples to draw")
    parser.add_argument(
        "--method",
        choices=DD_METHODS + VECTOR_METHODS,
        default="dd",
        help="sampling back-end (default: decision-diagram path sampling)",
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="sample in seed-stable chunks on N worker threads "
        "(method 'dd' only; same seed gives the same samples for any N)",
    )
    parser.add_argument(
        "--top",
        type=non_negative_int,
        default=20,
        help="print at most this many outcomes (>= 0)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the full counts as JSON to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--draw", action="store_true", help="print the circuit and exit"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print DD/timing statistics"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record a telemetry trace of the run and write it as JSONL "
        "to FILE (render with 'python -m repro.telemetry.report FILE')",
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="skip the compile pipeline and simulate the circuit verbatim",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="serve through the sampling service with a persistent "
        "compiled-artifact cache in DIR: a repeat invocation of the same "
        "circuit skips strong simulation and is bit-identical for the "
        "same --seed (see docs/serving.md)",
    )
    parser.add_argument(
        "--approx-epsilon",
        type=float,
        default=0.0,
        metavar="EPS",
        help="approximate the DD build, keeping the tracked fidelity "
        "lower bound >= 1-EPS (0, the default, is exact; DD methods "
        "only; see docs/approximation.md)",
    )
    parser.add_argument(
        "--approx-node-budget",
        type=int,
        default=None,
        metavar="N",
        help="switch approximation to the memory-driven strategy: prune "
        "only when the DD exceeds N nodes, still spending at most "
        "--approx-epsilon of fidelity",
    )
    parser.add_argument(
        "--reorder",
        action="store_true",
        help="shrink the DD by reordering qubits: a connectivity-derived "
        "initial order plus dynamic sifting during the build; reported "
        "samples stay in the original qubit order (DD methods only; see "
        "docs/reordering.md)",
    )
    parser.add_argument(
        "--reorder-budget",
        type=int,
        default=None,
        metavar="N",
        help="cap the total adjacent-swap attempts sifting may spend "
        "(default 256; implies --reorder)",
    )
    parser.add_argument(
        "--noise",
        metavar="SPEC",
        default=None,
        help="simulate under local noise (method 'dd' only): a channel "
        "name (depolarizing, amplitude_damping, phase_damping, bit_flip, "
        "phase_flip; strength from --noise-strength) or a JSON object "
        'like \'{"depolarizing": 0.01, "readout": {"p01": 0.02}}\' '
        "(see docs/noise.md)",
    )
    parser.add_argument(
        "--noise-strength",
        type=float,
        default=None,
        metavar="P",
        help="strength in [0, 1] for the --noise channel name; on its "
        "own, shorthand for depolarizing noise at strength P",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-sample``; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        with open(args.qasm_file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        print(f"error: cannot read {args.qasm_file}: {error}", file=sys.stderr)
        return 2
    try:
        circuit = parse_qasm(source)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.draw:
        print(draw(circuit))
        return 0

    if args.shots < 1:
        print("error: --shots must be positive", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return 2

    noise = None
    if args.noise is not None and args.noise.lstrip().startswith("{"):
        if args.noise_strength is not None:
            print(
                "error: --noise-strength does not combine with a JSON "
                "--noise object (put the strengths in the object)",
                file=sys.stderr,
            )
            return 2
        import json

        try:
            noise = json.loads(args.noise)
        except ValueError as error:
            print(f"error: --noise is not valid JSON: {error}", file=sys.stderr)
            return 2
    elif args.noise is not None:
        if args.noise_strength is None:
            print(
                f"error: --noise {args.noise} needs --noise-strength "
                "(or pass a JSON object with explicit strengths)",
                file=sys.stderr,
            )
            return 2
        noise = {args.noise: args.noise_strength}
    elif args.noise_strength is not None:
        noise = {"depolarizing": args.noise_strength}
    try:
        spec = BuildSpec.of(
            optimize=not args.no_optimize,
            approximation={
                "epsilon": args.approx_epsilon,
                "node_budget": args.approx_node_budget,
            },
            reorder=(
                args.reorder
                if args.reorder_budget is None
                else {"budget": args.reorder_budget}
            ),
            noise=noise,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.approx_node_budget is not None and spec.approximation is None:
        print(
            "error: --approx-node-budget needs --approx-epsilon > 0 "
            "(the fidelity allowance the pruning may spend)",
            file=sys.stderr,
        )
        return 2

    session = None
    if args.trace:
        from .telemetry import Telemetry

        session = Telemetry()

    start = time.perf_counter()
    cache_note = ""
    try:
        if args.cache_dir is not None:
            from .service import SamplingRequest, SamplingService

            with SamplingService(
                cache_dir=args.cache_dir, telemetry=session
            ) as service:
                response = service.sample(
                    SamplingRequest(
                        circuit,
                        args.shots,
                        seed=args.seed,
                        method=args.method,
                        workers=args.workers,
                        optimize=spec.optimize,
                        approximation=spec.approximation,
                        reorder=spec.reorder,
                        noise_model=spec.noise,
                    )
                )
            if not response.ok:
                print(
                    f"error: service {response.status}: {response.error}",
                    file=sys.stderr,
                )
                return 2
            result = response.result
            cache_note = f" (cache: {response.cache})"
        else:
            result = simulate_and_sample(
                circuit,
                args.shots,
                method=args.method,
                seed=args.seed,
                workers=args.workers,
                optimize=spec.optimize,
                telemetry=session,
                approximation=spec.approximation,
                reorder=spec.reorder,
                noise=spec.noise,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    print(
        f"{circuit.num_qubits} qubits, {circuit.num_operations} gates; "
        f"{result.shots} shots via {args.method!r} in {elapsed:.3f} s"
        f"{cache_note}"
    )
    # One record on every surface: the build record, cached or not.
    build = result.metadata.get("build") or {}
    approx_meta = build.get("approximation")
    if spec.approximation is not None and approx_meta:
        print(
            f"approximation: fidelity >= {approx_meta['fidelity_bound']:.6f} "
            f"(epsilon budget {spec.approximation.epsilon}, "
            f"{approx_meta['rounds']} pruning rounds, "
            f"{approx_meta['removed_edges']} edges removed)"
        )
    reorder_meta = build.get("reorder")
    if reorder_meta:
        print(
            f"reorder: level_to_qubit={reorder_meta['level_to_qubit']} "
            f"({reorder_meta['rounds']} sifting rounds, "
            f"{reorder_meta['swaps_kept']} swaps kept; samples reported "
            "in original qubit order)"
        )
    if spec.noise is not None:
        noise_meta = build.get("noise")
        line = f"noise: {spec.noise.describe()}"
        if noise_meta:
            line += (
                f" ({noise_meta['channel_applications']} channel "
                f"applications, {noise_meta['kraus_applications']} Kraus "
                "operators folded; samples drawn from the mixed-state diagonal)"
            )
        print(line)
    for bitstring, count in result.most_common(args.top):
        bar = "#" * max(1, round(40 * count / result.shots))
        print(f"  |{bitstring}>  {count:>8}  {bar}")
    remaining = result.distinct_outcomes - min(args.top, result.distinct_outcomes)
    if remaining > 0:
        print(f"  ... {remaining} more outcomes")

    if args.stats:
        print(
            f"precompute: {result.precompute_seconds:.4f} s, "
            f"sampling: {result.sampling_seconds:.4f} s, "
            f"distinct outcomes: {result.distinct_outcomes}"
        )
        if build:
            compile_info = build.get("compile") or {}
            line = f"build: {build['applied_operations']} operations applied"
            engine = build.get("kernel")
            if engine:
                line += f", engine={engine}"
            if compile_info:
                line += (
                    f" ({compile_info['input_operations']} before optimization, "
                    f"{compile_info['reduction_percent']}% removed)"
                )
            print(line)
            strategies = build.get("strategy_counts") or {}
            if strategies:
                rendered = ", ".join(
                    f"{k}={v}" for k, v in sorted(strategies.items())
                )
                print(
                    f"strategies: {rendered}, "
                    f"diagonal terms={build['diagonal_term_applications']}"
                )
            # Sorted: a record read back from the store has sorted keys.
            for pass_name, counters in sorted(
                (compile_info.get("passes") or {}).items()
            ):
                rendered = ", ".join(
                    f"{k}={v}" for k, v in sorted(counters.items())
                )
                print(f"optimizer {pass_name}: {rendered}")
        dd_stats = build.get("dd_tables") or result.metadata.get("dd_statistics")
        if dd_stats:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(dd_stats.items()))
            print(f"dd tables: {rendered}")
        cache_stats = result.metadata.get("compiled_cache")
        if cache_stats:
            print(
                "compiled DDs: "
                + ", ".join(f"{k}={v}" for k, v in sorted(cache_stats.items()))
            )

    if session is not None:
        try:
            records = session.export(args.trace)
        except OSError as error:
            print(f"error: cannot write {args.trace}: {error}", file=sys.stderr)
            return 2
        print(
            f"trace: {records} records -> {args.trace} "
            f"(render: python -m repro.telemetry.report {args.trace})"
        )

    if args.json:
        payload = result.to_json()
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
