"""Span tracer that times spinbath's modules from the outside.

Nothing under ``src/`` is edited.  While a tracer is installed, every
public function that one spinbath module imported from a traced layer is
replaced, *in the importing module*, by a timing wrapper.  ``runner``,
``ensembles`` and ``limits`` bind their imports with ``from .x import f``,
so patching only the home module would miss their calls: the patch has to
land on, e.g., ``spinbath.runner.decoherence_trace``.

Each span records its name, start, end, parent span and iteration id.
Spans stay in memory; the caller writes them out when the run ends.  A
span's self time is its duration minus the time its child spans cover, so
the self times of all spans of one iteration add up to the duration of
its root spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

import spinbath.cli
import spinbath.echo
import spinbath.ensembles
import spinbath.limits
import spinbath.model
import spinbath.runner
import spinbath.spectrum

#: Layers whose public functions get wrapped where they are imported.
#: ``rng`` is absent on purpose, so sampling time counts inside
#: ``ensembles``; ``config`` counts inside ``cli``.
LAYERS = ("ensembles", "model", "echo", "limits", "spectrum")

#: Every layer a span can belong to, root first.
ALL_LAYERS = ("cli", "runner", *LAYERS)

_CONSUMERS = (
    spinbath.cli,
    spinbath.runner,
    spinbath.ensembles,
    spinbath.limits,
    spinbath.echo,
    spinbath.spectrum,
    spinbath.model,
)

#: Same-module names the layer map needs on their own: ``run`` is the
#: runner's whole share (cli.main imports it at call time), and
#: ``realization_model`` is the per-realization sampling step that
#: ``ensemble_average_trace`` calls through its own module globals.
_OWN_NAMES = (
    (spinbath.runner, "run"),
    (spinbath.ensembles, "realization_model"),
)

#: Calls made once per time sample (20k+ per iteration).  They are kept as
#: one aggregated span per (iteration, name, parent) so tracing stays cheap.
AGGREGATED = frozenset(
    {"echo.echo_amplitude", "echo.survival_probability", "model.decoherence_factor"}
)


def _array_bytes(obj: Any) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


#: Work counters read from a traced call's arguments and result.
COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "model.decoherence_trace": lambda args, r: {
        "model.values": len(r),
        "model.spin_factors": len(r) * r.n_spins,
    },
    "model.decoherence_factor": lambda args, r: {
        "model.values": 1,
        "model.spin_factors": args[0].n,
    },
    "ensembles.realization_model": lambda args, r: {"ensembles.realizations": 1},
    "echo.echo_amplitude": lambda args, r: {"echo.calls": 1},
    "echo.survival_probability": lambda args, r: {"echo.calls": 1},
    "limits.check_time_average": lambda args, r: {"limits.samples": r.samples},
    "spectrum.enumerate_walks": lambda args, r: {
        "spectrum.walks": len(r),
        "spectrum.array_bytes": _array_bytes(r),
    },
    "spectrum.merge_degenerate": lambda args, r: {
        "spectrum.merge_in": len(args[0]),
        "spectrum.merge_out": len(r),
        "spectrum.array_bytes": _array_bytes(r),
    },
    "spectrum.ldos": lambda args, r: {
        "spectrum.array_bytes": r.edges.nbytes + r.masses.nbytes
    },
}


class Tracer:
    """Collects spans for the iterations run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.iteration = -1
        self._stack: list[dict[str, Any]] = []
        self._aggregated: dict[tuple, dict[str, Any]] = {}

    def _open(self, name: str, parent: int | None, start: float) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "iteration": self.iteration,
            "start": start,
            "end": start,
            "busy": 0.0,
            "calls": 0,
            "counts": {},
        }
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1]["id"] if self._stack else None
        start = time.perf_counter()
        if name in AGGREGATED:
            key = (self.iteration, name, parent)
            span = self._aggregated.get(key)
            if span is None:
                span = self._aggregated[key] = self._open(name, parent, start)
        else:
            span = self._open(name, parent, start)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span["end"] = end
            span["busy"] += end - start
            span["calls"] += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            counts = span["counts"]
            for key, value in counter(args, result).items():
                counts[key] = counts.get(key, 0) + value
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self, iteration: int) -> Iterator["Tracer"]:
        """Patch the wrappers in for one iteration, then restore the originals."""
        patches = []
        for module in _CONSUMERS:
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                layer = home.rpartition(".")[2]
                if home == module.__name__ or not home.startswith("spinbath.") or layer not in LAYERS:
                    continue
                patches.append((module, attr, obj, f"{layer}.{obj.__name__}"))
        for module, attr in _OWN_NAMES:
            layer = module.__name__.rpartition(".")[2]
            patches.append((module, attr, getattr(module, attr), f"{layer}.{attr}"))
        self.iteration = iteration
        try:
            for module, attr, original, name in patches:
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)


def iteration_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one iteration's spans (times in seconds)."""
    child_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_busy[span["parent"]] += span["busy"]
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = {layer: 0.0 for layer in ALL_LAYERS}
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        name = span["name"]
        self_time = span["busy"] - child_busy[span["id"]]
        busy[name] += span["busy"]
        own[name] += self_time
        layer_self[name.partition(".")[0]] += self_time
        for key, value in span["counts"].items():
            counts[key] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update(
        {
            "cli.parse_s": layer_self["cli"],
            "runner.self_s": layer_self["runner"],
            "ensembles.sample_s": busy["ensembles.realization_model"]
            + busy["ensembles.sample_couplings"]
            + busy["ensembles.sample_amplitudes"],
            "ensembles.realizations": counts["ensembles.realizations"],
            "ensembles.average_self_s": own["ensembles.ensemble_average_trace"],
            "model.trace_s": busy["model.decoherence_trace"],
            "model.values": counts["model.values"],
            "model.spin_factors": counts["model.spin_factors"],
            "model.spin_factors_per_s": ratio(
                counts["model.spin_factors"], layer_self["model"]
            ),
            "echo.amplitude_s": busy["echo.echo_amplitude"],
            "echo.survival_s": busy["echo.survival_probability"],
            "echo.calls": counts["echo.calls"],
            "limits.time_average_s": busy["limits.check_time_average"],
            "limits.samples": counts["limits.samples"],
            "spectrum.enumerate_s": busy["spectrum.enumerate_walks"],
            "spectrum.merge_s": busy["spectrum.merge_degenerate"],
            "spectrum.ldos_s": busy["spectrum.ldos"],
            "spectrum.walks": counts["spectrum.walks"],
            "spectrum.merge_ratio": ratio(
                counts["spectrum.merge_out"], counts["spectrum.merge_in"]
            ),
            "spectrum.array_bytes": counts["spectrum.array_bytes"],
            "trace.accounted_s": sum(layer_self.values()),
            "trace.spans": len(spans),
        }
    )
    return out
