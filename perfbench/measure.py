"""Shared measurement pieces: summary statistics, the host-speed probe, the
span log of a traced run, and the metric tables both workloads report into."""

from __future__ import annotations

import gc
import statistics
import time

from scripts import KINDS, WRITE_KINDS

#: the parts of reach_u's rules the engine's eval_timing_hook reports:
#: the delete rule's temporaries, then the primed relations of both rules
RULE_PARTS = ("TP", "CandE", "NewE", "E", "F", "PV")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "insert_p50_ms": "ms",
    "insert_join_p50_ms": "ms",
    "delete_tree_p50_ms": "ms",
    "delete_bridge_p50_ms": "ms",
    "delete_nontree_p50_ms": "ms",
    "ask_p50_ms": "ms",
    "query_p50_ms": "ms",
    "journal_bytes_per_write": "B",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for kind in ("insert", "insert_join"):
        for part in ("queue_wait", "writer_lock_wait", "journal_fsync"):
            units[f"service.{part}_ms.{kind}"] = "ms"
    units["service.fsyncs_per_write"] = "ratio"
    for kind in ("ask", "query"):
        for part in ("worker_wait", "read_lock_wait", "read_eval"):
            units[f"service.{part}_ms.{kind}"] = "ms"
    for kind in ("insert", "insert_join", "ask", "query"):
        units[f"service.wire_ms.{kind}"] = "ms"
    for kind in WRITE_KINDS:
        units[f"engine.apply_ms.{kind}"] = "ms"
        units[f"engine.other_ms.{kind}"] = "ms"
        units[f"engine.temporary_tuples.{kind}"] = "count"
        units[f"engine.delta_share.{kind}"] = "ratio"
    units["plan.compile_misses"] = "count"
    units["plan.compile_ms"] = "ms"
    units["plan.specialize_ms"] = "ms"
    units["plan.specialized_hit_share"] = "ratio"
    for kind in WRITE_KINDS:
        for part in RULE_PARTS:
            units[f"eval.{kind}.{part}_ms"] = "ms"
    for kind in WRITE_KINDS:
        units[f"structure.commit_ms.{kind}"] = "ms"
    units["structure.expand_ms"] = "ms"
    units["journal.append_ms"] = "ms"
    units["journal.bytes_per_write"] = "B"
    for kind in KINDS:
        units[f"obs.trace_overhead_share.{kind}"] = "ratio"
    return units


PER_LAYER = _per_layer_units()

#: per-layer metrics where a larger value is the better one
HIGHER_IS_BETTER = {
    "plan.specialized_hit_share",
    *(f"engine.delta_share.{kind}" for kind in WRITE_KINDS),
}


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


#: the probe kernel's median time, in ms, on the reference host (2 cores,
#: CPython 3.11.7); timings are reported as they would read there
PROBE_REFERENCE_MS = 2.2


def _probe_kernel() -> int:
    """A fixed piece of plain interpreter work shaped like the executors'
    inner loops (building, re-keying and diffing sets of tuples), and
    independent of the program under test."""
    rows = {(i, j, k) for i in range(20) for j in range(20) for k in range(10)}
    swapped = {(j, i, k) for i, j, k in rows}
    return len(rows - swapped) + len(rows & swapped)


class HostSpeed:
    """How fast the host runs right now, sampled between timed sections.

    A shared host's speed drifts by tens of percent within a minute while
    steal time stays near zero, and every request of a run slows alike.
    Timing the fixed probe kernel throughout the run and scaling the
    timings around it by ``PROBE_REFERENCE_MS / median probe time`` takes
    that drift out, while a change to the program still moves its own
    timings in full: the probe never calls it."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def sample(self, times: int = 1) -> None:
        # with the collector off, the probe's time does not grow with the
        # size of the program's heap
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                started = time.perf_counter_ns()
                _probe_kernel()
                self.samples_ms.append((time.perf_counter_ns() - started) / 1e6)
        finally:
            if enabled:
                gc.enable()

    def scale(self, since: int = 0) -> float:
        """The factor that turns a time measured while ``samples_ms[since:]``
        were taken into reference time."""
        return PROBE_REFERENCE_MS / statistics.median(self.samples_ms[since:])


class Recorder:
    """The measured pass's request latencies, scaled to the reference host
    round by round: each round by the probe samples taken during it."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.scaled: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.raw: dict[str, list[float]] = {kind: [] for kind in KINDS}
        #: per round: requests per second of the requests counted as its load
        self.round_rps: list[float] = []
        self.raw_round_rps: list[float] = []
        self._round: list[tuple[str, float, bool]] = []
        self._since = 0

    def add(self, kind: str, latency_ms: float, load: bool = True) -> None:
        """One request's round trip; ``load``: counted in the throughput."""
        self._round.append((kind, latency_ms, load))

    def end_round(self) -> None:
        if not self._round or len(self.speed.samples_ms) == self._since:
            return  # nothing measured, or nothing to scale it by
        scale = self.speed.scale(self._since)
        self._since = len(self.speed.samples_ms)
        busy_ms = 0.0
        requests = 0
        for kind, latency_ms, load in self._round:
            self.raw[kind].append(latency_ms)
            self.scaled[kind].append(latency_ms * scale)
            if load:
                busy_ms += latency_ms
                requests += 1
        self.raw_round_rps.append(requests / busy_ms * 1e3)
        self.round_rps.append(requests / (busy_ms * scale) * 1e3)
        self._round.clear()


class SetUpClock:
    """Set-up times, each scaled by the probe samples taken right after it."""

    #: probe samples after each set-up
    PROBES = 5

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []

    def time(self, set_up):
        """Run and time ``set_up()``; returns what it returns."""
        started = time.perf_counter()
        result = set_up()
        elapsed = time.perf_counter() - started
        since = len(self.speed.samples_ms)
        self.speed.sample(self.PROBES)
        self.raw_s.append(elapsed)
        self.scaled_s.append(elapsed * self.speed.scale(since))
        return result


def end_to_end(recorded: Recorder, setups: SetUpClock,
               journal_bytes_per_write: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end table: per-kind medians of the scaled latencies, the
    median round's throughput and the median scaled set-up time.  Returns
    the table and the same timings unscaled, beside the probe's median."""
    values = {
        "setup_s": statistics.median(setups.scaled_s),
        "throughput_rps": statistics.median(recorded.round_rps),
        "journal_bytes_per_write": journal_bytes_per_write,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(setups.raw_s),
        "throughput_rps": statistics.median(recorded.raw_round_rps),
        "probe_ms": statistics.median(recorded.speed.samples_ms),
        "setup_probe_ms": statistics.median(setups.speed.samples_ms),
    }
    for kind in KINDS:
        values[f"{kind}_p50_ms"] = p50(recorded.scaled[kind])
        raw[f"{kind}_p50_ms"] = p50(recorded.raw[kind])
    return {name: values[name] for name in END_TO_END}, raw


def engine_layers(records) -> dict:
    """Engine, rule-part, structure and journal metrics from traced writes:
    ``records`` holds ``(kind, span_ms, stats)`` per write, where
    ``span_ms`` maps span names (``engine_apply``, ``eval:<part>``,
    ``journal_append``, ``structure.*``) to milliseconds and ``stats`` is
    the engine's ``last_update_stats`` for it."""
    lists: dict[str, list[float]] = {}
    tuples = {kind: [0, 0, 0, 0] for kind in WRITE_KINDS}

    def add(name: str, value: float) -> None:
        lists.setdefault(name, []).append(value)

    for kind, spans, stats in records:
        apply = spans.get("engine_apply", 0.0)
        attributed = spans.get("journal_append", 0.0)
        attributed += sum(v for k, v in spans.items() if k.startswith("eval:"))
        add(f"engine.apply_ms.{kind}", apply)
        add(f"engine.other_ms.{kind}", apply - attributed)
        for part in RULE_PARTS:
            add(f"eval.{kind}.{part}_ms", spans.get(f"eval:{part}", 0.0))
        add("journal.append_ms", spans.get("journal_append", 0.0))
        if "structure.commit" in spans:
            add(f"structure.commit_ms.{kind}", spans["structure.commit"])
        if "structure.expand" in spans:
            add("structure.expand_ms", spans["structure.expand"])
        counts = tuples[kind]
        counts[0] += 1
        counts[1] += stats["temporary_tuples"]
        counts[2] += stats["tuples_added"] + stats["tuples_removed"]
        counts[3] += stats["tuples_written"]
    out = {name: p50(values) for name, values in lists.items()}
    for kind, (requests, temporary, delta, written) in tuples.items():
        if requests:
            out[f"engine.temporary_tuples.{kind}"] = temporary / requests
            out[f"engine.delta_share.{kind}"] = delta / written if written else 0.0
    return out


def overhead_shares(untraced: dict, traced: dict) -> dict:
    """obs.trace_overhead_share.<kind>: (traced p50 - untraced p50) / untraced p50."""
    return {
        f"obs.trace_overhead_share.{kind}": (p50(traced[kind]) - p50(untraced[kind]))
        / p50(untraced[kind])
        for kind in KINDS
        if untraced[kind]
    }


class SpanLog:
    """Spans recorded by the benchmark around its calls into each layer:
    name, start, end, parent span and request id, kept in memory and
    written out when the traced run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request: int | None = None
        #: whether wrapped calls record spans right now
        self.active = False

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
        })
        self._stack.append(index)
        return index

    def end(self, index: int) -> int:
        span = self.spans[index]
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()
        return span["end_ns"] - span["start_ns"]

    def current(self) -> int | None:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    def record(self, name: str, start_ns: int, end_ns: int, parent: int | None) -> None:
        """A finished span measured elsewhere (a hook or the server)."""
        self.spans.append({
            "name": name, "start_ns": start_ns, "end_ns": end_ns,
            "parent": parent, "request": self.request,
        })

    def wrap(self, owner, attribute: str, name: str):
        """Replace ``owner.attribute`` by a span-recording wrapper; returns
        the undo callable."""
        original = getattr(owner, attribute)
        log = self

        def wrapped(*args, **kwargs):
            if not log.active:
                return original(*args, **kwargs)
            index = log.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                log.end(index)

        setattr(owner, attribute, wrapped)
        return lambda: setattr(owner, attribute, original)

    def children(self) -> dict[int, list[dict]]:
        """Parent index -> its direct child spans."""
        out: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                out.setdefault(span["parent"], []).append(span)
        return out


def ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6
