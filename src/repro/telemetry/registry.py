"""Thread-safe metrics registry: counters, gauges, and latency histograms.

The registry is the aggregation half of the telemetry layer (the other
half, per-query traces, lives in :mod:`repro.telemetry.trace`).  It is
deliberately dependency-free: Prometheus text exposition is rendered by
hand so the package works in the same no-network container the rest of
the reproduction targets.

Design notes
------------
* Metric *families* are created through :class:`MetricsRegistry`
  (``counter`` / ``gauge`` / ``histogram``) and are get-or-create: asking
  for an existing name returns the existing family, and asking with a
  conflicting type or label schema raises ``ValidationError``.
* A family with labels hands out *children* via ``labels(...)``; a
  family without labels acts directly as its single child.  Children are
  cached, so hot paths can pre-bind them once (e.g. the candidate-cache
  hit/miss counters that every :class:`repro.indexing.IndexedSearcher`
  a Workspace builds binds from the workspace's registry) and pay only
  one small lock per update.
* Histograms use fixed bucket edges (exponential latency buckets by
  default) and estimate quantiles by linear interpolation inside the
  bucket that contains the target rank — the same estimator Prometheus'
  ``histogram_quantile`` applies server-side.
* When telemetry is disabled the code paths hold the
  :data:`NULL_REGISTRY` singleton instead; every operation on it is a
  constant-time no-op, so the enabled/disabled decision is made once at
  workspace construction and never re-checked per sample.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ValidationError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
]

# Exponential-ish latency edges from 0.1 ms to 10 s: fine enough to
# resolve sub-millisecond query stages, coarse enough that a histogram
# child is ~20 machine words.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(label_names: Sequence[str], label_values: Sequence[str]) -> str:
    if not label_names:
        return ""
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, label_values)
    ]
    return "{" + ",".join(parts) + "}"


def _label_key(label_names: Sequence[str], label_values: Sequence[str]) -> str:
    """Stable dict key for ``to_dict`` output (empty string when unlabelled)."""
    if not label_names:
        return ""
    return ",".join(
        f"{name}={value}" for name, value in zip(label_names, label_values)
    )


class _CounterChild:
    """Monotonic float counter; one lock per child keeps contention local."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters can only increase; use a gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    """Free-floating value with set/inc/dec semantics."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramChild:
    """Fixed-bucket histogram with Prometheus ``le`` (≤) semantics."""

    __slots__ = ("_lock", "_edges", "_counts", "_sum")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._edges = edges
        # One slot per finite edge plus the +Inf overflow bucket.
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self._edges, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Tuple[List[int], float]:
        with self._lock:
            return list(self._counts), self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of observed values.

        Linear interpolation inside the containing bucket, matching the
        estimator of PromQL's ``histogram_quantile``.  Values in the
        overflow bucket clamp to the largest finite edge.  Returns 0.0
        when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        counts, _ = self.snapshot()
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self._edges[index - 1] if index > 0 else 0.0
                if index >= len(self._edges):
                    # Overflow bucket: no finite upper edge to interpolate
                    # toward, so report the largest finite edge.
                    return self._edges[-1]
                upper = self._edges[index]
                fraction = (target - cumulative) / bucket_count
                return lower + max(0.0, min(1.0, fraction)) * (upper - lower)
            cumulative += bucket_count
        return self._edges[-1]


class _MetricFamily:
    """Base for a named metric plus its labelled children."""

    kind = "untyped"
    _child_type = _CounterChild

    def __init__(self, name: str, help_text: str, label_names: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not label_names:
            # Eagerly materialise the single child so unlabelled metrics
            # render as explicit zeros even before the first update.
            self._children[()] = self._make_child()

    def _make_child(self):
        return self._child_type()

    def labels(self, **labels: object):
        try:
            key = tuple(str(labels[name]) for name in self.label_names)
        except KeyError as exc:
            raise ValidationError(
                f"metric {self.name!r} requires labels {list(self.label_names)}"
            ) from exc
        if len(labels) != len(self.label_names):
            extras = sorted(set(labels) - set(self.label_names))
            raise ValidationError(
                f"metric {self.name!r} got unexpected labels {extras}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _sole_child(self):
        if self.label_names:
            raise ValidationError(
                f"metric {self.name!r} is labelled; call .labels(...) first"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterFamily(_MetricFamily):
    kind = "counter"
    _child_type = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    @property
    def value(self) -> float:
        return self._sole_child().value


class _GaugeFamily(_MetricFamily):
    kind = "gauge"
    _child_type = _GaugeChild

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole_child().dec(amount)

    @property
    def value(self) -> float:
        return self._sole_child().value


class _HistogramFamily(_MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Tuple[float, ...],
    ) -> None:
        self.buckets = buckets
        super().__init__(name, help_text, label_names)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._sole_child().observe(value)

    def quantile(self, q: float) -> float:
        return self._sole_child().quantile(q)

    @property
    def count(self) -> int:
        return self._sole_child().count

    @property
    def sum(self) -> float:
        return self._sole_child().sum


def _validate_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    edges = tuple(float(edge) for edge in buckets)
    if not edges:
        raise ValidationError("histogram needs at least one bucket edge")
    if any(not math.isfinite(edge) for edge in edges):
        raise ValidationError("histogram bucket edges must be finite")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValidationError("histogram bucket edges must be strictly increasing")
    return edges


class MetricsRegistry:
    """Process-local registry of counters, gauges, and histograms.

    Families are get-or-create by name; re-registering with a different
    type or label schema raises ``ValidationError`` so two code paths
    cannot silently write incompatible series under one name.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}

    # -- registration -----------------------------------------------------

    def _get_or_create(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        factory,
        kind: str,
    ):
        if not _METRIC_NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise ValidationError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = factory(label_names)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ValidationError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        if family.label_names != label_names:
            raise ValidationError(
                f"metric {name!r} already registered with labels "
                f"{list(family.label_names)}, not {list(label_names)}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _CounterFamily:
        return self._get_or_create(
            name,
            help_text,
            labels,
            lambda names: _CounterFamily(name, help_text, names),
            "counter",
        )

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _GaugeFamily:
        return self._get_or_create(
            name,
            help_text,
            labels,
            lambda names: _GaugeFamily(name, help_text, names),
            "gauge",
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> _HistogramFamily:
        edges = _validate_buckets(
            buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS
        )
        family = self._get_or_create(
            name,
            help_text,
            labels,
            lambda names: _HistogramFamily(name, help_text, names, edges),
            "histogram",
        )
        if family.buckets != edges:
            raise ValidationError(
                f"histogram {name!r} already registered with different buckets"
            )
        return family

    # -- export -----------------------------------------------------------

    def _sorted_families(self) -> List[_MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def to_dict(self) -> dict:
        """Structured JSON-friendly snapshot of every registered metric.

        Histograms include estimated p50/p95/p99 alongside the raw
        cumulative bucket counts so callers do not have to re-derive
        quantiles client-side.
        """
        counters: Dict[str, dict] = {}
        gauges: Dict[str, dict] = {}
        histograms: Dict[str, dict] = {}
        for family in self._sorted_families():
            if family.kind == "counter":
                counters[family.name] = {
                    "help": family.help,
                    "labels": list(family.label_names),
                    "values": {
                        _label_key(family.label_names, key): child.value
                        for key, child in family.children()
                    },
                }
            elif family.kind == "gauge":
                gauges[family.name] = {
                    "help": family.help,
                    "labels": list(family.label_names),
                    "values": {
                        _label_key(family.label_names, key): child.value
                        for key, child in family.children()
                    },
                }
            else:
                series: Dict[str, dict] = {}
                for key, child in family.children():
                    counts, total_sum = child.snapshot()
                    cumulative = 0
                    buckets: Dict[str, int] = {}
                    for edge, bucket_count in zip(family.buckets, counts):
                        cumulative += bucket_count
                        buckets[_format_value(edge)] = cumulative
                    cumulative += counts[-1]
                    buckets["+Inf"] = cumulative
                    series[_label_key(family.label_names, key)] = {
                        "count": cumulative,
                        "sum": total_sum,
                        "p50": child.quantile(0.50),
                        "p95": child.quantile(0.95),
                        "p99": child.quantile(0.99),
                        "buckets": buckets,
                    }
                histograms[family.name] = {
                    "help": family.help,
                    "labels": list(family.label_names),
                    "series": series,
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for family in self._sorted_families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if family.kind in ("counter", "gauge"):
                for key, child in family.children():
                    suffix = _label_suffix(family.label_names, key)
                    lines.append(
                        f"{family.name}{suffix} {_format_value(child.value)}"
                    )
            else:
                for key, child in family.children():
                    counts, total_sum = child.snapshot()
                    cumulative = 0
                    for edge, bucket_count in zip(family.buckets, counts):
                        cumulative += bucket_count
                        le_suffix = _label_suffix(
                            family.label_names + ("le",),
                            key + (_format_value(edge),),
                        )
                        lines.append(f"{family.name}_bucket{le_suffix} {cumulative}")
                    cumulative += counts[-1]
                    inf_suffix = _label_suffix(
                        family.label_names + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{family.name}_bucket{inf_suffix} {cumulative}")
                    plain_suffix = _label_suffix(family.label_names, key)
                    lines.append(
                        f"{family.name}_sum{plain_suffix} {_format_value(total_sum)}"
                    )
                    lines.append(f"{family.name}_count{plain_suffix} {cumulative}")
        return "\n".join(lines) + "\n" if lines else ""


class _NullChild:
    """Accepts every metric operation and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def labels(self, **labels: object) -> "_NullChild":
        return self

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0


_NULL_CHILD = _NullChild()


class NullMetricsRegistry(MetricsRegistry):
    """Disabled-telemetry stand-in: every family it returns is a no-op.

    Code holds a reference to either a real :class:`MetricsRegistry` or
    this singleton, decided once (``ServingConfig.telemetry``); hot
    paths then call ``inc``/``observe`` unconditionally and pay only an
    empty method call when telemetry is off.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name, help_text="", labels=()):  # type: ignore[override]
        return _NULL_CHILD

    def gauge(self, name, help_text="", labels=()):  # type: ignore[override]
        return _NULL_CHILD

    def histogram(self, name, help_text="", labels=(), buckets=None):  # type: ignore[override]
        return _NULL_CHILD

    def to_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullMetricsRegistry()
