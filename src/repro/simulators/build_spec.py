"""The six settings that decide what a build makes, in one value.

A weak-simulation request is one pipeline — strong simulation into a
DD, then sampling — and six settings decide what its strong
simulation produces: ``scheme``, ``optimize``, ``initial_state``,
``approximation``, ``reorder`` and ``noise``.
:class:`BuildSpec` holds them.  (Which engine runs the build is not a
setting: every vector-DD build runs on the SoA kernel
(:func:`repro.perf.kernel.select_engine`), and the python reference
gives the same answer.)  Each entry point (``simulate_and_sample``,
``repro-sample``, the sampling service, ``cache_key``, the simulators)
builds one with :meth:`BuildSpec.of` and hands it down unchanged, and
the spec owns the three decisions every layer used to make on its own:

* **Parsing** — :meth:`BuildSpec.of` turns raw numbers, bools and
  mappings into config objects and maps a disabled feature to ``None``,
  so "off" has exactly one spelling below the entry point.  Noise
  implies ``optimize=False``: gate-attached noise binds to the circuit
  as written, so the optimizer never runs on a noisy build.
* **The rule table and the route** — :data:`RULES` lists, in order,
  every combination no serving path can honour, and
  :meth:`BuildSpec.route` raises the first one a request breaks and
  names the path that serves it: ``"density"`` (noise),
  ``"shot-executor"`` (a mid-circuit measurement), ``"statevector"``
  (``vector*`` methods) or ``"dd"``.  The library, ``repro-sample``,
  JSONL batch mode and HTTP all branch on that one answer
  (``docs/api.md`` renders the table, and ``tools/check_docs.py`` keeps
  the two in step).
* **The key bytes** — :meth:`BuildSpec.fold_key` feeds the enabled
  features into an artifact-key hash.  Disabled features add nothing,
  so every historic exact key is unchanged.

This module is a leaf: it imports only the config classes and the
circuit predicate, so the simulators can import it at module level.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from ..circuit.circuit import QuantumCircuit, circuit_has_mid_circuit_measurement
from ..dd.approximation import ApproximationConfig
from ..dd.normalization import NormalizationScheme
from ..dd.reorder import ReorderConfig
from ..exceptions import SamplingError
from ..noise.model import NoiseModel

__all__ = [
    "BuildSpec",
    "BuildSpecError",
    "DD_METHODS",
    "RULES",
    "Rule",
    "VECTOR_METHODS",
]

VECTOR_METHODS = ("vector", "vector-linear", "vector-ooc", "vector-alias")
DD_METHODS = ("dd", "dd-path", "dd-multinomial", "dd-collapse")


def _enabled(config_class: Any, value: Any) -> Any:
    """``config_class.from_value(value)`` when it is enabled, else ``None``."""
    config = None if value is None else config_class.from_value(value)
    return config if config is not None and config.enabled else None


class BuildSpecError(SamplingError, ValueError):
    """A combination of build settings that no serving path can honour.

    A :class:`~repro.exceptions.SamplingError`, so ``except ReproError``
    callers (the CLI, the service) report it, and a :class:`ValueError`,
    as the simulators' argument checks always raised.
    """


class Rule(NamedTuple):
    """One row of the rule table: a combination and what the caller is told.

    ``breaks(spec, method, workers, path)`` is true when a request
    falls in the row, where ``path`` is the serving path
    :meth:`BuildSpec.route` chose (``None`` under the circuit-free
    :meth:`BuildSpec.check`); ``message`` is a :meth:`str.format`
    template over ``method``.
    """

    name: str
    message: str
    breaks: Callable[["BuildSpec", str, Optional[int], Optional[str]], bool]


#: Every combination no path can serve, in the order they are checked
#: (the first broken row is reported).  The last two rows apply to the
#: shot-executor path, so only :meth:`BuildSpec.route`, which sees the
#: circuit, raises them.
RULES = (
    Rule(
        "unknown-method",
        "unknown sampling method {method!r}",
        lambda s, m, w, path: m not in DD_METHODS + VECTOR_METHODS,
    ),
    Rule(
        "workers-needs-dd",
        "parallel chunked sampling requires method='dd'",
        lambda s, m, w, path: w is not None and m != "dd",
    ),
    Rule(
        "approximation-vector-method",
        "approximation applies to DD methods only; vector methods are always exact",
        lambda s, m, w, path: s.approximation is not None and m in VECTOR_METHODS,
    ),
    Rule(
        "reorder-vector-method",
        "reordering applies to DD methods only; vector methods use the natural order",
        lambda s, m, w, path: s.reorder is not None and m in VECTOR_METHODS,
    ),
    Rule(
        "noise-needs-dd",
        "noise requires method='dd' (samples come from the compiled density diagonal)",
        lambda s, m, w, path: s.noise is not None and m != "dd",
    ),
    Rule(
        "noise-approximation",
        "noise and approximation cannot be combined: the fidelity-bound "
        "accounting assumes a pure state",
        lambda s, m, w, path: s.noise is not None and s.approximation is not None,
    ),
    Rule(
        "noise-reorder",
        "noise and reordering cannot be combined: sifting is implemented for "
        "vector DDs only",
        lambda s, m, w, path: s.noise is not None and s.reorder is not None,
    ),
    Rule(
        "noise-workers",
        "parallel chunked sampling is not supported for noisy runs",
        lambda s, m, w, path: s.noise is not None and w is not None,
    ),
    Rule(
        "per-shot-approximation",
        "approximation is not supported for mid-circuit measurement (the shot "
        "executor re-simulates per shot)",
        lambda s, m, w, path: path == "shot-executor" and s.approximation is not None,
    ),
    Rule(
        "per-shot-reorder",
        "reordering is not supported for mid-circuit measurement (collapses "
        "assume a fixed qubit order)",
        lambda s, m, w, path: path == "shot-executor" and s.reorder is not None,
    ),
)


@dataclass(frozen=True)
class BuildSpec:
    """What a strong simulation builds; see the module docstring.

    Construct through :meth:`of` unless the fields are already parsed:
    the feature fields hold an *enabled* config or ``None``, never a
    disabled config or a raw spelling.
    """

    scheme: NormalizationScheme = NormalizationScheme.L2
    optimize: bool = True
    initial_state: int = 0
    approximation: Optional[ApproximationConfig] = None
    reorder: Optional[ReorderConfig] = None
    noise: Optional[NoiseModel] = None

    @classmethod
    def of(
        cls,
        scheme: NormalizationScheme = NormalizationScheme.L2,
        optimize: bool = True,
        initial_state: int = 0,
        approximation: Any = None,
        reorder: Any = None,
        noise: Any = None,
    ) -> "BuildSpec":
        """Parse raw settings into a spec.

        ``approximation`` takes an
        :class:`~repro.dd.approximation.ApproximationConfig`, a bare
        epsilon or a mapping; ``reorder`` a
        :class:`~repro.dd.reorder.ReorderConfig`, a bool, a swap budget
        or a mapping; ``noise`` a :class:`~repro.noise.NoiseModel`, a
        bare depolarizing strength or a mapping.  A disabled feature
        becomes ``None``, and enabled noise sets ``optimize=False``.
        Malformed values raise the config's own error
        (:class:`~repro.exceptions.DDError` or
        :class:`~repro.exceptions.NoiseError`).
        """
        noise = _enabled(NoiseModel, noise)
        return cls(
            scheme=scheme,
            optimize=optimize if noise is None else False,
            initial_state=initial_state,
            approximation=_enabled(ApproximationConfig, approximation),
            reorder=_enabled(ReorderConfig, reorder),
            noise=noise,
        )

    def check(self, method: str = "dd", workers: Optional[int] = None) -> None:
        """Raise :class:`BuildSpecError` for the first :data:`RULES` row broken.

        The circuit-free check, for callers that hold no circuit
        (``sample_dd``): it skips the shot-executor rows, which only
        :meth:`route` can decide.
        """
        self._raise_broken(method, workers, None)

    def route(
        self,
        circuit: QuantumCircuit,
        method: str = "dd",
        workers: Optional[int] = None,
    ) -> str:
        """The serving path for ``circuit``, after raising any broken row.

        ``"density"`` when noise is enabled (a mid-circuit measurement
        dephases there); otherwise ``"shot-executor"`` when a
        measurement is followed by further gates, whatever the sampling
        ``method``; otherwise ``"statevector"`` for ``vector*`` methods
        and ``"dd"`` for the DD methods.  Raises
        :class:`BuildSpecError` for the first :data:`RULES` row the
        request breaks.
        """
        if self.noise is not None:
            path = "density"
        elif circuit_has_mid_circuit_measurement(circuit):
            path = "shot-executor"
        elif method in VECTOR_METHODS:
            path = "statevector"
        else:
            path = "dd"
        self._raise_broken(method, workers, path)
        return path

    def _raise_broken(
        self, method: str, workers: Optional[int], path: Optional[str]
    ) -> None:
        for rule in RULES:
            if rule.breaks(self, method, workers, path):
                raise BuildSpecError(rule.message.format(method=method))

    def fold_key(self, hasher: Any) -> None:
        """Feed the enabled features into an artifact-key ``hasher``.

        Approximation folds epsilon (IEEE-754 bits), cadence and node
        budget; reordering folds budget, cadence, trigger size and the
        static/dynamic flags; noise folds its canonical strength tuple
        (:meth:`~repro.noise.NoiseModel.strengths`).  A disabled feature
        adds nothing.
        """
        if self.approximation is not None:
            config = self.approximation
            budget = -1 if config.node_budget is None else config.node_budget
            hasher.update(
                b"approx" + struct.pack("<diq", config.epsilon, config.interval, budget)
            )
        if self.reorder is not None:
            config = self.reorder
            flags = (2 if config.static else 0) | (1 if config.dynamic else 0)
            hasher.update(
                b"reorder"
                + struct.pack(
                    "<qiqi", config.budget, config.interval, config.min_nodes, flags
                )
            )
        if self.noise is not None:
            strengths = self.noise.strengths()
            hasher.update(b"noise" + struct.pack(f"<{len(strengths)}d", *strengths))
