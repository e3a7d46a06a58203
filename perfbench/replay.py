"""Traced replay: the run's requests, in-process, one span per layer call.

The replay calls each layer's public function in the order a pool
worker does for the request's path, with a span around every call on a
standalone :class:`repro.telemetry.Tracer`.  The tracer is never
activated as the process-wide session, so the program's own spans
(per-gate ``apply`` and so on) stay off and only the benchmark's layer
boundaries are recorded.  Every span carries the ``request_id`` of the
request it serves; the layer spans are children of one ``request`` span.

Layers and the end-to-end metric each should move:

==========================  ==========================================
span                        end-to-end metric (workload)
==========================  ==========================================
qasm.parse                  latency_p50_ms (serve_hot)
keys.cache_key              latency_p50_ms (serve_hot)
compile.optimize            latency_p50_ms (serve_cold)
build.kernel                latency_p50/p95_ms, requests_per_s (serve_cold)
build.python                latency_p50_ms (serve_features)
build.density               latency_p50_ms (serve_features)
noise.diagonal              latency_p50_ms (serve_features)
shots.executor              latency_p95_ms (serve_features)
precompute.compile_edge     latency_p50_ms (serve_cold)
store.put                   latency_p50_ms (serve_cold)
store.get                   store.disk_latency_p50_ms (serve_cold)
sample.draw                 shots_per_s (serve_hot)
results.counts              latency_p50_ms (serve_hot)
api.encode                  latency_p50_ms (serve_hot)
==========================  ==========================================

Predictions of no change: build-layer work (``compile.optimize``,
``build.*``, ``precompute``, ``store.put``) should leave ``serve_hot``
unmoved, since its artifacts are built during set-up; counting and
encoding work (``results.counts``, ``api.encode``) should leave
``serve_features`` unmoved, since its answers have at most 64 outcomes.

A replayed answer must equal the server's answer to the same request
(same seed, same path), which checks that the replay mirrors the server.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.qasm import parse_qasm
from repro.compile import optimize_circuit
from repro.core.results import SampleResult
from repro.core.shot_executor import ShotExecutor
from repro.dd.approximation import ApproximationConfig
from repro.dd.normalization import NormalizationScheme
from repro.dd.package import DDPackage
from repro.dd.reorder import ReorderConfig, is_identity_permutation, unpermute_samples
from repro.noise.model import NoiseModel
from repro.perf.compiled_dd import CompiledDD, compile_edge
from repro.service.api import SamplingResponse
from repro.service.keys import cache_key
from repro.service.store import ArtifactStore
from repro.simulators.dd_simulator import DDSimulator
from repro.simulators.density_simulator import DensityMatrixSimulator, compile_noisy_sampler
from repro.telemetry import Registry, Tracer, write_trace

from checks import counts_digest
from workloads import Request

__all__ = ["LAYERS", "Replay", "ReplayItem"]

#: Every layer span the replay records, in pipeline order.
LAYERS = (
    "qasm.parse",
    "keys.cache_key",
    "compile.optimize",
    "build.kernel",
    "build.python",
    "build.density",
    "noise.diagonal",
    "shots.executor",
    "precompute.compile_edge",
    "store.put",
    "store.get",
    "sample.draw",
    "results.counts",
    "api.encode",
)


@dataclass
class ReplayItem:
    """One request to replay, and the tier the server answered it from."""

    request: Request
    request_id: str
    tier: str  # "memory", "disk", "built" or "bypass"
    server_digest: Optional[str] = None


class Replay:
    """Replays requests through the layers; owns the tracer and the store."""

    def __init__(self, store_dir: Path):
        self.tracer = Tracer()
        self.registry = Registry()
        self.store = ArtifactStore(str(store_dir))
        self._memory: Dict[str, Tuple[CompiledDD, Dict[str, Any]]] = {}
        self._counters: Dict[str, float] = {
            "builds": 0,
            "dd_nodes": 0,
            "applied_ops": 0,
            "kernel_fallbacks": 0,
            "ops_in": 0,
            "ops_out": 0,
            "distinct_outcomes": 0,
            "response_bytes": 0,
            "puts": 0,
        }
        self.requests = 0
        self.mismatches: List[str] = []

    # ------------------------------------------------------------------
    # Set-up (untraced)
    # ------------------------------------------------------------------

    def warm(self, request: Request) -> None:
        """Build ``request``'s artifact into memory without tracing it."""
        circuit = parse_qasm(request.qasm)
        key = cache_key(circuit, initial_state=request.initial_state)
        if key not in self._memory:
            compiled, meta = self._build_exact(circuit, request, None, None, None)
            self._memory[key] = (compiled, meta)

    # ------------------------------------------------------------------
    # The traced request
    # ------------------------------------------------------------------

    def _span(self, name: str, request_id: str, **attrs: Any):
        return self.tracer.span(name, request_id=request_id, **attrs)

    def run(self, item: ReplayItem) -> None:
        """Replay one request along the path of its server tier."""
        request, rid = item.request, item.request_id
        with self._span("request", rid, family=request.family, tier=item.tier):
            with self._span("qasm.parse", rid):
                circuit = parse_qasm(request.qasm)
            noise = NoiseModel.from_value(request.options.get("noise_model"))
            approximation = ApproximationConfig.from_value(
                request.options["approximation"]
            ) if "approximation" in request.options else None
            reorder = ReorderConfig.from_value(
                request.options["reorder"]
            ) if "reorder" in request.options else None
            with self._span("keys.cache_key", rid):
                key = cache_key(
                    circuit,
                    optimize=noise is None,
                    initial_state=request.initial_state,
                    approximation=approximation,
                    reorder=reorder,
                    noise=noise,
                )
            if request.kind == "mcm":
                with self._span("shots.executor", rid):
                    executor = ShotExecutor(circuit)
                    result = executor.run(request.shots, seed=request.seed)
                self._counters["kernel_fallbacks"] += executor.stats[
                    "kernel_measurement_fallbacks"
                ]
                backend = "shot-executor"
                fidelity = noise_dict = None
            else:
                if item.tier == "memory":
                    compiled, meta = self._memory[key]
                elif item.tier == "disk":
                    with self._span("store.get", rid):
                        stored = self.store.get(key)
                    if stored is None:
                        raise RuntimeError(f"{rid}: artifact missing from the store")
                    compiled, meta = stored.compiled, stored.meta
                else:
                    if noise is not None:
                        compiled, meta = self._build_noisy(circuit, request, noise, rid)
                    else:
                        compiled, meta = self._build_exact(
                            circuit, request, approximation, reorder, rid
                        )
                    with self._span("store.put", rid):
                        self.store.put(key, compiled, meta=meta)
                    self._counters["puts"] += 1
                rng = np.random.default_rng(request.seed)
                with self._span("sample.draw", rid):
                    samples = compiled.sample(request.shots, rng)
                    level_to_qubit = (meta.get("reorder") or {}).get("level_to_qubit")
                    if level_to_qubit is not None and not is_identity_permutation(
                        level_to_qubit
                    ):
                        samples = unpermute_samples(samples, level_to_qubit)
                with self._span("results.counts", rid):
                    result = SampleResult.from_samples(
                        compiled.num_qubits, samples, method="dd"
                    )
                backend = "dd"
                fidelity = (meta.get("approximation") or {}).get("fidelity_bound")
                noise_dict = (meta.get("noise") or {}).get("model")
            with self._span("api.encode", rid):
                response = SamplingResponse(
                    request_id=rid,
                    status="ok",
                    result=result,
                    backend=backend,
                    cache=item.tier,
                    key=key,
                    fidelity_bound=fidelity,
                    noise=noise_dict,
                )
                body = json.dumps(response.to_dict())
        self.requests += 1
        self._counters["distinct_outcomes"] += len(result.counts)
        self._counters["response_bytes"] += len(body)
        if item.server_digest is not None and counts_digest(result.counts) != item.server_digest:
            self.mismatches.append(rid)

    def _build_exact(
        self,
        circuit,
        request: Request,
        approximation: Optional[ApproximationConfig],
        reorder: Optional[ReorderConfig],
        rid: Optional[str],
    ) -> Tuple[CompiledDD, Dict[str, Any]]:
        """Optimise, build (SoA kernel or python engine), flatten."""
        span = self._span if rid is not None else _untraced
        package = DDPackage(scheme=NormalizationScheme.L2)
        with span("compile.optimize", rid):
            optimized, rewrite = optimize_circuit(circuit, tolerance=package.tolerance)
        simulator = DDSimulator(
            package=package,
            optimize=False,
            approximation=approximation,
            reorder=reorder,
        )
        engine = "build.kernel" if simulator.resolved_kernel() == "vector" else "build.python"
        with span(engine, rid):
            state = simulator.run(optimized, initial_state=request.initial_state)
        with span("precompute.compile_edge", rid):
            compiled = compile_edge(state.edge, state.num_qubits)
        stats = simulator.stats
        meta: Dict[str, Any] = {}
        if approximation is not None:
            meta["approximation"] = {"fidelity_bound": stats.fidelity_bound}
        if reorder is not None and stats.level_to_qubit is not None:
            meta["reorder"] = {"level_to_qubit": list(stats.level_to_qubit)}
        if rid is not None:
            self._count_build(stats.final_dd_nodes, stats.applied_operations)
            self._counters["kernel_fallbacks"] += stats.kernel_fallbacks
            self._counters["ops_in"] += rewrite.input_operations
            self._counters["ops_out"] += rewrite.output_operations
        return compiled, meta

    def _build_noisy(
        self, circuit, request: Request, noise: NoiseModel, rid: str
    ) -> Tuple[CompiledDD, Dict[str, Any]]:
        """Density-matrix build, then the diagonal sampler."""
        simulator = DensityMatrixSimulator(noise=noise)
        with self._span("build.density", rid):
            rho = simulator.run(circuit, initial_state=request.initial_state)
        with self._span("noise.diagonal", rid):
            compiled = compile_noisy_sampler(rho, noise)
        self._count_build(rho.node_count, simulator.stats.applied_operations)
        return compiled, {"noise": {"model": noise.to_dict()}}

    def _count_build(self, nodes: int, applied: int) -> None:
        self._counters["builds"] += 1
        self._counters["dd_nodes"] += nodes
        self._counters["applied_ops"] += applied

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Mean self time per call of every layer, the counts, and coverage."""
        spans = self.tracer.spans
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
        totals = {name: 0.0 for name in LAYERS}
        calls = {name: 0 for name in LAYERS}
        for span in spans:
            if span.name in totals:
                totals[span.name] += span.duration - child_time.get(span.span_id, 0.0)
                calls[span.name] += 1
        metrics = {
            f"{name}_ms": 1e3 * totals[name] / calls[name] if calls[name] else 0.0
            for name in LAYERS
        }
        counters = self._counters
        builds = counters["builds"]
        metrics.update(
            {
                "compile.op_ratio": (
                    counters["ops_out"] / counters["ops_in"] if counters["ops_in"] else 0.0
                ),
                "build.dd_nodes": counters["dd_nodes"] / builds if builds else 0.0,
                "build.applied_ops": counters["applied_ops"] / builds if builds else 0.0,
                "kernel.fallbacks": counters["kernel_fallbacks"],
                "store.artifact_bytes": (
                    self.store.total_bytes() / counters["puts"] if counters["puts"] else 0.0
                ),
                "results.distinct_outcomes": (
                    counters["distinct_outcomes"] / self.requests if self.requests else 0.0
                ),
                "api.response_bytes": (
                    counters["response_bytes"] / self.requests if self.requests else 0.0
                ),
                "trace.coverage": (
                    sum(totals.values()) / self.tracer.wall_seconds
                    if self.tracer.wall_seconds
                    else 0.0
                ),
            }
        )
        return metrics

    def write(self, path: Path, metrics: Dict[str, float]) -> int:
        """Write the trace with ``write_trace``; returns the record count."""
        for name, value in metrics.items():
            self.registry.gauge(f"perfbench.{name}").set(value)
        self.registry.counter("perfbench.requests").inc(self.requests)
        self.registry.counter("perfbench.builds").inc(int(self._counters["builds"]))
        self.registry.counter("perfbench.mismatches").inc(len(self.mismatches))
        return write_trace(str(path), self.tracer, self.registry)


def _untraced(_name: str, _request_id: Optional[str], **_attrs: Any):
    return contextlib.nullcontext()
