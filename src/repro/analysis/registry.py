"""The central metric registry.

Every artefact of the paper — Table 1, the §3-§5 headline numbers, Figures
4-24 and the waterfall comparisons — is one registered :class:`Metric`.  A
metric has a stable name (the CLI artefact name), a paper reference, default
parameters, and a ``compute`` that turns an :class:`~repro.analysis.context.AnalysisContext`
into a typed :class:`MetricResult` envelope (data + rendered text + metadata
+ render hints).  The CLI, the service, the examples, the tests and the
benchmarks all resolve artefacts through :func:`compute_metric`, so adding a
metric is a single :func:`register_metric` call in an analysis module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Protocol, runtime_checkable

from repro.analysis.context import AnalysisContext
from repro.errors import MetricContextError, UnknownMetricError

__all__ = [
    "Metric",
    "MetricResult",
    "FunctionMetric",
    "register_metric",
    "get_metric",
    "metric_names",
    "iter_metrics",
    "compute_metric",
    "available_metrics",
]


@dataclass(frozen=True)
class MetricResult:
    """What one metric computation produced.

    ``data`` holds the figure's plain data structures (rows, ECDF curves,
    headline shares), ``text`` the aligned plain-text rendering the CLI and
    examples print, and ``render`` hints at how a plotting front-end would
    draw it (kind of mark, unit, ...).
    """

    name: str
    title: str
    ref: str
    data: Mapping[str, Any]
    text: str
    params: Mapping[str, Any] = field(default_factory=dict)
    render: Mapping[str, Any] = field(default_factory=dict)


@runtime_checkable
class Metric(Protocol):
    """What the registry stores: anything that can compute a MetricResult."""

    name: str
    title: str
    ref: str
    requires: tuple[str, ...]
    params: Mapping[str, Any]

    def compute(self, context: AnalysisContext, **overrides: Any) -> MetricResult:
        ...


@dataclass(frozen=True)
class FunctionMetric:
    """A metric backed by a plain function ``fn(context, **params) -> dict``.

    The function returns its data keys plus a rendered ``"text"``;
    :meth:`compute` wraps them into the :class:`MetricResult` envelope.
    """

    name: str
    title: str
    ref: str
    fn: Callable[..., Mapping[str, Any]]
    requires: tuple[str, ...] = ("dataset",)
    params: Mapping[str, Any] = field(default_factory=dict)
    render: Mapping[str, Any] = field(default_factory=dict)

    def compute(self, context: AnalysisContext, **overrides: Any) -> MetricResult:
        missing = tuple(name for name in self.requires if not context.has(name))
        if missing:
            raise MetricContextError(self.name, missing)
        merged = {**self.params, **overrides}
        payload = dict(self.fn(context, **merged))
        text = str(payload.pop("text", ""))
        return MetricResult(
            name=self.name,
            title=self.title,
            ref=self.ref,
            data=payload,
            text=text,
            params=merged,
            render=dict(self.render),
        )


# The built-in paper metrics register themselves when their module is
# imported, and every metric module is imported by repro/analysis/__init__.py
# — which Python runs before this submodule can be imported from anywhere —
# so the registry is always fully populated by the time it is queried.
_REGISTRY: dict[str, Metric] = {}


def register(metric: Metric) -> Metric:
    """Add a metric object to the registry (last registration wins)."""
    _REGISTRY[metric.name] = metric
    return metric


def register_metric(
    name: str,
    *,
    title: str,
    ref: str,
    requires: tuple[str, ...] = ("dataset",),
    render: Mapping[str, Any] | None = None,
    **default_params: Any,
) -> Callable[[Callable[..., Mapping[str, Any]]], Callable[..., Mapping[str, Any]]]:
    """Decorator registering ``fn(context, **params) -> dict`` as a metric."""

    def decorator(fn: Callable[..., Mapping[str, Any]]) -> Callable[..., Mapping[str, Any]]:
        register(
            FunctionMetric(
                name=name,
                title=title,
                ref=ref,
                fn=fn,
                requires=requires,
                params=dict(default_params),
                render=dict(render or {}),
            )
        )
        return fn

    return decorator


def get_metric(name: str) -> Metric:
    """The registered metric called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMetricError(name, tuple(sorted(_REGISTRY))) from None


def metric_names() -> tuple[str, ...]:
    """Every registered metric name, sorted."""
    return tuple(sorted(_REGISTRY))


def iter_metrics() -> Iterator[Metric]:
    """Every registered metric, in sorted name order."""
    for name in sorted(_REGISTRY):
        yield _REGISTRY[name]


def compute_metric(name: str, context: AnalysisContext, **overrides: Any) -> MetricResult:
    """Compute one registered metric against a context."""
    return get_metric(name).compute(context, **overrides)


def available_metrics(context: "AnalysisContext | frozenset[str] | set[str]") -> tuple[str, ...]:
    """The metric names computable with a context (or a provides set), sorted."""
    provided = context if isinstance(context, (frozenset, set)) else context.provides()
    return tuple(m.name for m in iter_metrics() if set(m.requires) <= provided)
