"""Telemetry core: spans, instant events, and a metrics registry.

The simulator's observability layer.  A :class:`TelemetryCollector` records
*spans* (named intervals of simulated time, optionally parented into a
tree), *instant events* (zero-duration annotations, e.g. injected faults),
and *metrics* (counters, gauges, histograms).  Instrumentation sites across
the hot paths -- the simulation kernel, the network fabric, the GPU model,
the CaSync task engines, the fault injector, and the training loop -- all
follow the same contract:

    tel = self.env.telemetry          # None unless a collector is attached
    span = tel.begin(...) if tel is not None else None
    ...                               # the instrumented work
    if span is not None:
        tel.finish(span, self.env.now)

**Zero-cost when disabled** is a hard guarantee: with no collector attached
every instrumentation site reduces to one ``is not None`` test, no
simulation events are created, and the event sequence -- hence every trace
hash and every result -- is bit-identical to an uninstrumented build.
Recording itself never touches the simulation clock or agenda either, so
an *attached* collector also leaves timing unchanged; it only observes.

Collectors can be attached two ways:

* explicitly, by passing ``telemetry=collector`` to
  :func:`~repro.training.loop.simulate_iteration` /
  :func:`~repro.experiments.common.run_system` /
  :meth:`~repro.hipress.framework.TrainingJob.run`;
* ambiently, with :func:`attach` / :func:`detach` (or the
  :func:`telemetry_session` context manager) -- every simulation started
  while a collector is attached records into it.  This is what the
  experiment CLI's ``--trace out.json`` flag uses.

One collector may span several simulations (e.g. a whole figure driver).
Each simulation calls :meth:`TelemetryCollector.start_run`, which assigns a
run index and a time offset so consecutive runs occupy disjoint stretches
of the exported timeline instead of overlapping at t=0.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunInfo",
    "TelemetryCollector",
    "attach",
    "detach",
    "current_collector",
    "telemetry_session",
]


class Span:
    """A named interval of simulated time on a track.

    ``track`` identifies the horizontal row the span renders on (e.g.
    ``"node3/encode"``); ``category`` groups spans for aggregation (e.g.
    ``"kernel"``, ``"transfer"``).  ``parent_id`` links child work to the
    span that caused it (a kernel launched by an encode task, a transfer
    issued by a coordinator batch).  ``attrs`` carries free-form metadata
    such as byte counts or task ids.
    """

    __slots__ = ("id", "parent_id", "name", "category", "track", "run",
                 "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, category: str, track: str,
                 run: int, start: float, parent_id: Optional[int],
                 attrs: Dict[str, Any]):
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.run = run
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length; 0.0 while still open."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def node(self) -> Optional[int]:
        """Node index parsed from a ``node<N>/...`` track, else None."""
        return _track_node(self.track)

    def __repr__(self) -> str:
        state = f"{self.start:.6f}..{self.end:.6f}" if self.finished \
            else f"{self.start:.6f}..(open)"
        return f"<Span #{self.id} {self.name!r} {self.track} {state}>"


def _track_node(track: str) -> Optional[int]:
    if track.startswith("node"):
        head = track.split("/", 1)[0][4:]
        if head.isdigit():
            return int(head)
    return None


# -- metrics ----------------------------------------------------------------

class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...]):
        self.name = name
        self.labels = labels
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean)."""

    __slots__ = ("name", "labels", "count", "total", "min", "max")

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...]):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    A metric's identity is ``(kind, name, sorted labels)``; asking for the
    same identity twice returns the same instance, so instrumentation sites
    can call ``registry.counter("net.bytes_sent").inc(n)`` in a loop
    without holding references.
    """

    def __init__(self):
        self._metrics: Dict[Tuple, Any] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, Any]):
        key = (kind, name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = _METRIC_KINDS[kind](name, key[2])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Flat, deterministic dump of every metric (for the exporters)."""
        rows = []
        for (kind, name, labels), metric in sorted(
                self._metrics.items(), key=lambda kv: (kv[0][0], kv[0][1],
                                                       repr(kv[0][2]))):
            row: Dict[str, Any] = {"kind": kind, "name": name,
                                   "labels": dict(labels)}
            if kind == "histogram":
                row.update(count=metric.count, sum=metric.total,
                           min=metric.min, max=metric.max, mean=metric.mean)
            else:
                row["value"] = metric.value
            rows.append(row)
        return rows


# -- the collector ----------------------------------------------------------

class RunInfo:
    """One simulation recorded into a collector: label + timeline offset."""

    __slots__ = ("index", "label", "offset")

    def __init__(self, index: int, label: str, offset: float):
        self.index = index
        self.label = label
        self.offset = offset

    def __repr__(self) -> str:
        return f"<RunInfo #{self.index} {self.label!r} @+{self.offset:.6f}s>"


class TelemetryCollector:
    """Accumulates spans, instant events, metrics, and task-graph metadata."""

    def __init__(self):
        self.spans: List[Span] = []
        self.instants: List[Dict[str, Any]] = []
        self.metrics = MetricsRegistry()
        self.runs: List[RunInfo] = []
        #: Task-graph structure captured at arm time: task index -> the
        #: indices of the tasks it depends on.
        self.task_deps: Dict[int, Tuple[int, ...]] = {}
        #: Task index -> {"kind", "label", "node"}.
        self.task_meta: Dict[int, Dict[str, Any]] = {}
        self._next_id = 0
        self._offset = 0.0
        self._high_water = 0.0

    # -- run management ---------------------------------------------------

    @property
    def run_index(self) -> int:
        """Index of the run currently recording (0 before any start_run)."""
        return max(0, len(self.runs) - 1)

    def start_run(self, label: str) -> RunInfo:
        """Open a new run: later spans are offset past all earlier ones."""
        self._offset = self._high_water
        info = RunInfo(len(self.runs), label, self._offset)
        self.runs.append(info)
        self.instant(f"run:{label}", category="run", track="sim/runs", at=0.0)
        return info

    # -- recording --------------------------------------------------------

    def begin(self, name: str, *, category: str = "span",
              track: str = "sim", parent: Union[Span, int, None] = None,
              at: float = 0.0, **attrs) -> Span:
        """Open a span at simulated time ``at`` (run offset is added)."""
        self._next_id += 1
        parent_id = parent.id if isinstance(parent, Span) else parent
        span = Span(self._next_id, name, category, track, self.run_index,
                    self._offset + at, parent_id, attrs)
        self.spans.append(span)
        return span

    def finish(self, span: Span, at: float, **attrs) -> Span:
        """Close ``span`` at simulated time ``at``; merge extra attrs."""
        span.end = self._offset + at
        if span.end < span.start:
            raise ValueError(
                f"span {span.name!r} ends before it starts "
                f"({span.end} < {span.start})")
        if attrs:
            span.attrs.update(attrs)
        if span.end > self._high_water:
            self._high_water = span.end
        return span

    def instant(self, name: str, *, category: str = "event",
                track: str = "sim", at: float = 0.0, **attrs) -> Dict[str, Any]:
        """Record a zero-duration annotation (e.g. an injected fault)."""
        record = {"name": name, "category": category, "track": track,
                  "run": self.run_index, "at": self._offset + at,
                  "attrs": attrs}
        self.instants.append(record)
        if record["at"] > self._high_water:
            self._high_water = record["at"]
        return record

    # -- metric conveniences ---------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self.metrics.histogram(name, **labels)

    # -- task-graph metadata ----------------------------------------------

    def register_task_graph(self, graph) -> None:
        """Capture a :class:`~repro.casync.tasks.TaskGraph`'s structure.

        Called by ``TaskGraph.arm`` when telemetry is enabled, so exported
        timelines can be cross-checked against the dependency DAG that
        produced them (span ordering must respect task dependencies).
        A task is keyed by its index in the graph, the ``task`` attr of
        its span.
        """
        for k in range(graph.num_tasks):
            self.task_deps[k] = tuple(
                d for d in graph.predecessors(k) if isinstance(d, int))
            self.task_meta[k] = {"kind": graph.recipe.kinds[k],
                                 "label": graph.recipe.labels[k],
                                 "node": graph.nodes[k]}

    # -- queries -----------------------------------------------------------

    def find_spans(self, track: Optional[str] = None,
                   category: Optional[str] = None,
                   name: Optional[str] = None,
                   run: Optional[int] = None,
                   finished: Optional[bool] = None) -> List[Span]:
        """Filter recorded spans; all criteria are ANDed, None means any."""
        out = []
        for span in self.spans:
            if track is not None and span.track != track:
                continue
            if category is not None and span.category != category:
                continue
            if name is not None and span.name != name:
                continue
            if run is not None and span.run != run:
                continue
            if finished is not None and span.finished != finished:
                continue
            out.append(span)
        return out

    def tracks(self) -> List[str]:
        """All track names, sorted (node-major for ``node<N>/...``)."""
        names = {s.track for s in self.spans}
        names.update(i["track"] for i in self.instants)
        return sorted(names, key=lambda t: (_track_node(t) is None,
                                            _track_node(t) or 0, t))

    def span_by_id(self, span_id: int) -> Optional[Span]:
        for span in self.spans:
            if span.id == span_id:
                return span
        return None

    def __repr__(self) -> str:
        return (f"<TelemetryCollector {len(self.spans)} spans, "
                f"{len(self.instants)} instants, {len(self.metrics)} metrics, "
                f"{len(self.runs)} runs>")


# -- ambient attachment -----------------------------------------------------

_ACTIVE: List[TelemetryCollector] = []


def attach(collector: Optional[TelemetryCollector] = None
           ) -> TelemetryCollector:
    """Make ``collector`` (or a fresh one) the ambient collector.

    Simulations started while a collector is attached record into it unless
    they were handed an explicit ``telemetry=`` collector.  Attachment
    nests: the most recently attached collector wins, and :func:`detach`
    pops it.
    """
    if collector is None:
        collector = TelemetryCollector()
    _ACTIVE.append(collector)
    return collector


def detach(collector: Optional[TelemetryCollector] = None
           ) -> Optional[TelemetryCollector]:
    """Remove the ambient collector (validating it if one is passed)."""
    if not _ACTIVE:
        return None
    if collector is not None and _ACTIVE[-1] is not collector:
        raise ValueError("detach() collector is not the active one")
    return _ACTIVE.pop()


def current_collector() -> Optional[TelemetryCollector]:
    """The ambient collector, or None (the zero-cost default)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def telemetry_session(collector: Optional[TelemetryCollector] = None):
    """``with telemetry_session() as tel:`` -- attach for the block."""
    tel = attach(collector)
    try:
        yield tel
    finally:
        detach(tel)
