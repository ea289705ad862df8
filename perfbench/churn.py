"""The churn workloads: one in-process engine, one thread, no sockets.

``churn-relational`` and ``churn-dense`` replay the same seeded rotation
(:func:`scripts.churn_script`) on the relational and the dense executor.
Only the program calls are timed; every oracle check runs between them, and
so does the host-speed probe (:class:`measure.HostSpeed`).
"""

from __future__ import annotations

import gc
import resource
import time
from pathlib import Path

from measure import Recorder, SetUpClock, SpanLog, end_to_end, engine_layers, ms
from scripts import KINDS, WRITE_KINDS, ChurnSpec, ForestModel, churn_script
from scripts import components, connected_pairs, write_problems

from repro.dynfo.engine import DynFOEngine
from repro.dynfo.errors import EngineError
from repro.dynfo.journal import RequestJournal, recover
from repro.dynfo.requests import Delete, Insert
from repro.logic.structure import BatchUpdate, Structure
from repro.programs import make_reach_u_program

#: timed set-ups per run, apart from the measured pass's; set-up time is
#: reported as their median
SETUPS = 7
#: rounds of the rotation per run: the same rotation, repeated more on the
#: executor whose requests are cheaper, so both runs measure enough work
ROUNDS = {"relational": 8, "dense": 24}


def _request(op: str, edge: tuple[int, int]):
    return Insert("E", edge) if op == "ins" else Delete("E", edge)


def _set_up(backend: str, script, path: Path):
    """A fresh program, journal and engine, with the initial graph loaded."""
    program = make_reach_u_program()
    journal = RequestJournal(path, fsync=False, record_effects=True)
    engine = DynFOEngine(program, script.n, backend=backend, journal=journal)
    for op, edge, _ in script.setup:
        engine.apply(_request(op, edge))
    return engine, journal


class _Pass:
    """One replay of the measured steps over a set-up engine.

    With a span log, round 0 warms up unrecorded and the later rounds
    alternate: odd rounds run with every instrument on, even rounds with
    none.  Every round replays the identical state sequence, so the two
    halves measure the same work, interleaved in time, and their
    difference is the tracing overhead."""

    def __init__(self, engine: DynFOEngine, script, rounds: int,
                 log: SpanLog | None = None, recorder: Recorder | None = None) -> None:
        self.engine = engine
        self.script = script
        self.per_round = len(script.steps) // rounds
        self.log = log
        #: the untraced pass's scaled timings; its probe runs before each write
        self.recorder = recorder
        self.latencies: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.traced_latencies: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.records: list[tuple[int, str, dict]] = []  # traced writes
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _timed(self, kind: str, call, sink):
        log = self.log if sink is self.traced_latencies else None
        if log is not None:
            outer = log.begin("request")
            inner = log.begin("engine_apply" if kind in WRITE_KINDS else "engine_read")
        started = time.perf_counter_ns()
        try:
            return call()
        finally:
            elapsed = time.perf_counter_ns() - started
            if log is not None:
                log.end(inner)
                log.end(outer)
            if sink is not None:
                sink[kind].append(elapsed / 1e6)
            if self.recorder is not None:
                self.recorder.add(kind, elapsed / 1e6)

    def _sink(self, rid: int):
        """Where step ``rid``'s latency goes (None: a warm-up step)."""
        if self.log is None:
            return self.latencies
        round_ = rid // self.per_round
        if round_ == 0:
            return None
        return self.traced_latencies if round_ % 2 else self.latencies

    def run(self) -> None:
        engine, n, log = self.engine, self.script.n, self.log
        model = ForestModel(n)
        for op, edge, _ in self.script.setup:
            model.insert(*edge)
        labels = components(n, model.edges)
        try:
            for rid, (op, args, kind) in enumerate(self.script.steps):
                sink = self._sink(rid)
                tracing = sink is self.traced_latencies
                if log is not None:
                    log.request, log.active = rid, tracing
                    engine.eval_timing_hook = self._hook if tracing else None
                self.attempted += 1
                try:
                    if op == "ask":
                        answer = self._timed(
                            kind, lambda: engine.ask("reach", s=args[0], t=args[1]), sink)
                        if answer != (labels[args[0]] == labels[args[1]]):
                            self.problems.append(f"step {rid}: reach{args} answered {answer}")
                    elif op == "query":
                        rows = self._timed(kind, lambda: engine.query("connected"), sink)
                        if rows != connected_pairs(labels):
                            self.problems.append(f"step {rid}: query connected is wrong")
                    else:
                        request = _request(op, args)
                        if self.recorder is not None:
                            # before the write, so the ask after it meets
                            # the caches as the write left them
                            self.recorder.speed.sample()
                        self._timed(kind, lambda: engine.apply(request), sink)
                        if tracing:
                            self.records.append((rid, kind, dict(engine.last_update_stats)))
                        if log is not None:
                            log.active = False
                        forest = engine.query("forest")
                        for problem in write_problems(model, op, args, kind, forest):
                            self.problems.append(f"step {rid}: {problem}")
                        labels = components(n, model.edges)
                except EngineError as error:
                    self.failed += 1
                    self.problems.append(f"step {rid}: {op}{args} failed: {error}")
                    if op in ("ins", "del"):
                        return  # the script's classification no longer holds
                if self.recorder is not None and (rid + 1) % self.per_round == 0:
                    self.recorder.end_round()
        finally:
            engine.eval_timing_hook = None
            if log is not None:
                log.active = False

    def _hook(self, kind: str, name: str, ns: int) -> None:
        log = self.log
        now = time.perf_counter_ns()
        label = "journal_append" if kind == "journal" else f"eval:{name}"
        log.record(label, now - ns, now, log.current())


def _engine_layers(passed: _Pass, log: SpanLog) -> dict:
    """The engine-side layer metrics of one traced pass, from the spans of
    each write."""
    spans_ms: dict[int, dict[str, float]] = {}
    for span in log.spans:
        named = spans_ms.setdefault(span["request"], {})
        named[span["name"]] = named.get(span["name"], 0.0) + ms(span)
    return engine_layers(
        (kind, spans_ms.get(rid, {}), stats) for rid, kind, stats in passed.records
    )


def _replay(backend: str, script, rounds: int, path: Path, log: SpanLog | None = None,
            recorder: Recorder | None = None):
    """Set up a fresh engine, then replay the measured steps on it.
    Returns the pass, the engine and the measured journal bytes per write."""
    engine, journal = _set_up(backend, script, path)
    bytes_before = journal.bytes_written
    gc.collect()
    passed = _Pass(engine, script, rounds, log, recorder)
    passed.run()
    writes = sum(1 for _, _, kind in script.steps if kind in WRITE_KINDS)
    journal_bytes = (journal.bytes_written - bytes_before) / writes
    journal.close()
    return passed, engine, journal_bytes


def _recovery_problems(engine: DynFOEngine, path: Path) -> list[str]:
    """Untimed: replaying the journal rebuilds the live structure."""
    rebuilt = recover(engine.program, path, n=engine.n, backend=engine.backend_name,
                      attach=False)
    if rebuilt.structure != engine.structure:
        return ["journal recovery rebuilt a different structure"]
    return []


def run(backend: str, seed: int, workdir: Path, traced: bool) -> dict:
    """One run of a churn workload.  Returns the raw outcome that
    ``run.py`` turns into the printed result."""
    script = churn_script(seed, ChurnSpec(rounds=ROUNDS[backend]))
    if traced:
        return _traced(backend, script, workdir)
    setups, recorder = SetUpClock(), Recorder()
    for i in range(SETUPS):
        setups.time(lambda: _set_up(backend, script, workdir / f"setup-{i}.ndjson")[1].close())
    path = workdir / "journal.ndjson"
    passed, engine, journal_bytes = _replay(
        backend, script, ROUNDS[backend], path, recorder=recorder)
    table, raw = end_to_end(
        recorder, setups, journal_bytes,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return {
        **_stamp(script, passed),
        "problems": passed.problems + _recovery_problems(engine, path),
        "end_to_end": table,
        "unscaled": raw,
        "exact": {"journal_bytes_per_write": journal_bytes},
    }


def _stamp(script, passed: _Pass) -> dict:
    return {
        "digest": script.digest(),
        "counts": script.counts(),
        "n": script.n,
        "attempted": passed.attempted,
        "failed": passed.failed,
    }


def _traced(backend: str, script, workdir: Path) -> dict:
    """The per-layer run: one replay whose odd rounds run with every
    instrument on — the engine's eval_timing_hook (rule parts and journal
    appends) plus span wrappers around the structure calls the engine makes
    — and whose even rounds run with none (see :class:`_Pass`)."""
    log = SpanLog()
    undo = [
        log.wrap(BatchUpdate, "commit", "structure.commit"),
        log.wrap(Structure, "expand", "structure.expand"),
    ]
    path = workdir / "journal.ndjson"
    try:
        passed, engine, journal_bytes = _replay(
            backend, script, ROUNDS[backend], path, log)
    finally:
        for restore in undo:
            restore()
    layers = _engine_layers(passed, log)
    compiled = engine.plan_cache_stats()
    special = engine.specialized_plan_cache_stats()
    requested = special["hits"] + special["misses"]
    layers.update({
        "plan.compile_misses": compiled["misses"],
        "plan.compile_ms": compiled["compile_ns"] / 1e6,
        "plan.specialize_ms": special["specialize_ns"] / 1e6,
        "plan.specialized_hit_share": special["hits"] / requested if requested else 0.0,
        "journal.bytes_per_write": journal_bytes,
    })
    return {
        **_stamp(script, passed),
        "problems": passed.problems + _recovery_problems(engine, path),
        "exact": {"journal_bytes_per_write": journal_bytes},
        "layers": layers,
        "traced_latencies": passed.traced_latencies,
        "untraced_latencies": passed.latencies,
        "spans": log.spans,
    }
