"""The served workload: ``repro serve`` in its own process, driven from this
process over two connections.

Main phase, in rounds, each on a fresh durable session at n=48 that starts
from an empty graph: a writer connection sends an insert-only stream and a
reader connection sends point asks and `query connected`, in one fixed
interleave from this one thread, each request sent once the one before it
is answered.  Every read is checked against the oracle bracket of the
inserts answered before it was sent and those issued before its reply.

Side phase, a share after each main round and alone, on a second session
at n=12: the writer connection replays a small churn rotation, so the
served delete kinds are measured without putting a delete on a main
session.
"""

from __future__ import annotations

import gc
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from measure import Recorder, SetUpClock, SpanLog, end_to_end, engine_layers, p50
from scripts import KINDS, WRITE_KINDS, ChurnSpec, ForestModel, churn_script
from scripts import ReadMixSpec, components, connected_pairs, forest_problem, read_mix_script
from scripts import write_problems

from repro.dynfo.requests import Delete, Insert, request_to_item
from repro.service.client import TCPServiceClient
from repro.service.errors import ServiceError
from repro.service.protocol import rows_from_wire

SETUPS = 5
#: in the measured pass, the host-speed probe runs before every
#: PROBE_EVERY-th main insert and before every side write, in this process
#: while the server idles
PROBE_EVERY = 4
#: the main phase runs this many times, each on its own fresh session
MAINS = tuple(f"mix{i}" for i in range(ReadMixSpec().rounds))
SIDE = "side"
#: the side session's churn: small enough that a served delete stays cheap
SIDE_SPEC = ChurnSpec(n=12, core=9, chords=5, victims=4, rounds=2 * len(MAINS),
                      asks_per_write=0, queries=False)
#: request ids of the side session's writes start here, apart from the main
#: rounds' (round i's start at i * 10**5)
SIDE_BASE = 10**7
BANNER = re.compile(r"dynfo service on [\w.]+:(\d+)")


class _Server:
    """``python -m repro serve`` as a child process with a durable data dir."""

    def __init__(self, root: Path, data_dir: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(data_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: list[str] = []
        lines: queue.Queue = queue.Queue()
        # drain the pipe for the server's whole life so it can never block
        self._drain = threading.Thread(target=self._read, args=(lines,), daemon=True)
        self._drain.start()
        deadline = time.monotonic() + 60
        while True:
            try:
                line = lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("server printed no banner within 60 s") from None
            if line is None:
                self.stop()
                raise RuntimeError("server exited: " + "".join(self.output))
            match = BANNER.search(line)
            if match:
                self.port = int(match.group(1))
                return

    def _read(self, lines: queue.Queue) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            lines.put(line)
        lines.put(None)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        """SIGTERM (sessions are snapshotted), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stdout.close()


def _set_up(root: Path, data_dir: Path, side):
    """Server process, two connections, both sessions open, the side
    session's initial graph loaded."""
    server = _Server(root, data_dir)
    try:
        writer = TCPServiceClient(port=server.port, timeout=120)
        reader = TCPServiceClient(port=server.port, timeout=120)
        for name in MAINS:
            writer.open(name, "reach_u", n=ReadMixSpec().n)
        writer.open(SIDE, "reach_u", n=side.n)
        writer.apply_script(SIDE, [Insert("E", edge) for _, edge, _ in side.setup])
    except BaseException:
        server.stop()
        raise
    return server, writer, reader


class _Pass:
    """One replay of both phases against a set-up server."""

    def __init__(self, writer, reader) -> None:
        self.writer, self.reader = writer, reader
        self.log = SpanLog()
        self.latencies: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.traced_latencies: dict[str, list[float]] = {kind: [] for kind in KINDS}
        #: whether requests ask for the server's span tree, and where their
        #: latencies go (None: a warm-up round); set per round
        self.tracing = False
        self.sink: dict | None = self.latencies
        #: traced requests: (request id, kind, client ms, span tree, write stats)
        self.traces: list[tuple[int, str, float, dict, dict | None]] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.issued = 0  # inserts sent so far (bumped before the send)
        self.acked = 0  # inserts answered so far (bumped after the reply)
        #: the untraced pass's scaled timings; its probe runs before every
        #: PROBE_EVERY-th main insert and every side write
        self.recorder: Recorder | None = None

    def _send(self, client, item: dict, kind: str, rid: int):
        """One timed round trip; with tracing, ask for the server's span
        tree and keep it beside the client-side time."""
        started = time.perf_counter_ns()
        if self.tracing:
            result, trace = client.call_traced(item)
        else:
            result, trace = client.request(item), None
        elapsed = time.perf_counter_ns() - started
        if self.sink is not None:
            self.sink[kind].append(elapsed / 1e6)
        if self.recorder is not None:
            # the side session's writes are timed, not counted as load
            self.recorder.add(kind, elapsed / 1e6, load=rid < SIDE_BASE)
        if trace is not None:
            stats = result.get("stats") if isinstance(result, dict) else None
            self.traces.append((rid, kind, elapsed / 1e6, trace, stats))
            self._record(rid, started, elapsed, trace)
        return result

    def _record(self, rid: int, started: int, elapsed: int, trace: dict) -> None:
        """Client span plus the server's span tree, re-based onto it."""
        log = self.log
        log.request = rid
        parent = len(log.spans)
        log.record("request", started, started + elapsed, None)
        total_ns = int(trace["total_us"] * 1e3)
        origin = started + (elapsed - total_ns) // 2  # the wire time, split evenly
        server = len(log.spans)
        log.record("server", origin, origin + total_ns, parent)

        def add(spans, under):
            for span in spans or ():
                here = len(log.spans)
                begin = origin + int(span["start_us"] * 1e3)
                log.record(span["name"], begin, begin + int(span["duration_us"] * 1e3), under)
                add(span.get("spans"), here)

        add(trace["spans"], server)

    def main_phase(self, script, session: str, base: int) -> list:
        """The round's inserts on the writer connection, each followed by
        the reads the script puts after it on the reader connection, on
        ``session``, whose request ids start at ``base``.  Returns the
        reads' answers, each with the insert counts that bracket it."""
        self.issued = self.acked = 0
        answers: list[tuple[int, str, tuple, object, int, int]] = []
        reads = list(zip(script.reads, script.after))
        rid = base + len(script.steps)
        for wid, (_, edge, kind) in enumerate(script.steps, base):
            if self.recorder is not None and (wid - base) % PROBE_EVERY == 0:
                self.recorder.speed.sample()
            item = {"op": "apply", "session": session,
                    "request": request_to_item(Insert("E", edge))}
            self.issued += 1
            self.attempted += 1
            try:
                self._send(self.writer, item, kind, wid)
            except ServiceError as error:
                self.failed += 1
                self.problems.append(f"insert {edge}: {error}")
                continue
            self.acked += 1
            while reads and reads[0][1] <= self.issued:
                (op, args, kind), _ = reads.pop(0)
                self._read(session, script.n, (op, args, kind), rid, answers)
                rid += 1
        return answers

    def _read(self, session: str, n: int, step, rid: int, answers: list) -> None:
        op, args, kind = step
        if op == "ask":
            item = {"op": "ask", "session": session, "name": "reach",
                    "params": {"s": args[0], "t": args[1]}}
        else:
            item = {"op": "query", "session": session, "name": "connected", "params": {}}
        low = self.acked
        self.attempted += 1
        try:
            result = self._send(self.reader, item, kind, rid)
        except ServiceError as error:
            self.failed += 1
            self.problems.append(f"{op}{args}: {error}")
            return
        high = self.issued
        if op == "query":  # one int instead of a list per row keeps GC quiet
            result = _mask(result, n)
        answers.append((rid, op, args, result, low, high))

    def check_reads(self, script, session: str, answers) -> None:
        """Untimed.  A read may see any prefix of the insert stream between
        the inserts acknowledged before it was sent and those issued before
        its reply arrived; the final state must match exactly."""
        n = script.n
        edges = [edge for _, edge, _ in script.steps]
        labels = [list(range(n))]  # component labels after each prefix of inserts
        for a, b in edges:
            ra, rb = labels[-1][a], labels[-1][b]
            labels.append([min(ra, rb) if x in (ra, rb) else x for x in labels[-1]])
        masks: dict[int, int] = {}
        for rid, op, args, result, low, high in answers:
            if op == "ask":
                s, t = args
                if result and labels[high][s] != labels[high][t]:
                    self.problems.append(f"request {rid}: reach{args} true before it could be")
                if not result and labels[low][s] == labels[low][t]:
                    self.problems.append(f"request {rid}: reach{args} false after an acked join")
            else:
                for k in (low, high):
                    if k not in masks:
                        masks[k] = _mask(connected_pairs(labels[k]), n)
                if masks[low] & ~result or result & ~masks[high]:
                    self.problems.append(f"request {rid}: query connected outside its bracket")
        final = rows_from_wire(self.reader.request(
            {"op": "query", "session": session, "name": "connected", "params": {}}))
        if final != connected_pairs(components(n, edges)):
            self.problems.append("final query connected differs from the oracle")
        forest = rows_from_wire(self.reader.request(
            {"op": "query", "session": session, "name": "forest", "params": {}}))
        problem = forest_problem(n, set(edges), forest)
        if problem:
            self.problems.append(f"{session}: {problem}")

    def side_phase(self, side, steps, base: int) -> None:
        """``steps`` of the side session's churn rotation (whole rounds, so
        the side graph starts and ends in its base state), writes only,
        each followed by an untimed forest check."""
        model = ForestModel(side.n)
        for _, edge, _ in side.setup:
            model.insert(*edge)
        for rid, (op, edge, kind) in enumerate(steps, base):
            request = Insert("E", edge) if op == "ins" else Delete("E", edge)
            item = {"op": "apply", "session": SIDE, "request": request_to_item(request)}
            if self.recorder is not None:
                self.recorder.speed.sample()
            self.attempted += 1
            try:
                self._send(self.writer, item, kind, rid)
            except ServiceError as error:
                self.failed += 1
                self.problems.append(f"side {op}{edge}: {error}")
                return
            rows = rows_from_wire(self.writer.request(
                {"op": "query", "session": SIDE, "name": "forest", "params": {}}))
            self.problems.extend(f"side: {p}" for p in write_problems(model, op, edge, kind, rows))


def _mask(rows, n: int) -> int:
    """A set of pairs as one int, bit x * n + y per pair (x, y)."""
    mask = 0
    for x, y in rows:
        mask |= 1 << (x * n + y)
    return mask


def _session_stats(client, name: str) -> dict:
    return client.stats(name)[name]


def _replay(writer, reader, mains, side, traced: bool, recorder: Recorder | None = None):
    """Every main round, each followed by its share of the side session's
    churn, so that every kind's samples spread over the whole run.  Returns
    the pass, the main sessions' counter deltas and their final ``stats``
    blocks.

    ``traced``: round 0 warms up unrecorded, then odd rounds ask for span
    trees and even rounds do not.  The two halves do isomorphic work,
    interleaved in time, so their difference is the tracing overhead."""
    passed = _Pass(writer, reader)
    passed.recorder = recorder
    deltas = {"bytes_written": 0, "fsyncs": 0}
    finals = []
    share = len(side.steps) // len(mains)
    for i, (session, script) in enumerate(zip(MAINS, mains)):
        if traced:
            passed.tracing = i % 2 == 1
            passed.sink = (None if i == 0 else
                           passed.traced_latencies if passed.tracing else passed.latencies)
        gc.collect()
        before = _session_stats(writer, session)
        answers = passed.main_phase(script, session, i * 10**5)
        after = _session_stats(writer, session)
        passed.check_reads(script, session, answers)
        for key in ("bytes_written", "fsyncs"):
            deltas[key] += after["journal"][key] - before["journal"][key]
        finals.append(after)
        # a closed session frees its structure, so every round meets the
        # same server heap
        writer.close_session(session, snapshot=False)
        passed.side_phase(side, side.steps[i * share:(i + 1) * share], SIDE_BASE + i * share)
        if recorder is not None:
            recorder.end_round()
    return passed, deltas, finals


def _outcome(mains, side, passed: _Pass) -> dict:
    counts = {kind: sum(s.counts()[kind] for s in mains) for kind in KINDS}
    return {
        "digest": "-".join(s.digest() for s in (*mains, side)),
        "counts": {"main": counts, "side": side.counts()},
        "n": {"main": mains[0].n, "side": side.n},
        "attempted": passed.attempted,
        "failed": passed.failed,
    }


def run(seed: int, workdir: Path, traced: bool, root: Path) -> dict:
    mains = read_mix_script(seed)
    side = churn_script(seed, SIDE_SPEC)
    if traced:
        return _traced(root, workdir, mains, side)
    setups, recorder = SetUpClock(), Recorder()
    for i in range(SETUPS):
        server, writer, reader = setups.time(lambda: _set_up(root, workdir / f"data-{i}", side))
        if i < SETUPS - 1:
            _shut_down(server, writer, reader)
    try:
        passed, deltas, _ = _replay(writer, reader, mains, side, False, recorder)
        peak_rss = server.peak_rss_mb()
    finally:
        _shut_down(server, writer, reader)
    writes = sum(len(s.steps) for s in mains)
    journal_bytes = deltas["bytes_written"] / writes
    table, raw = end_to_end(recorder, setups, journal_bytes, peak_rss)
    return {
        **_outcome(mains, side, passed),
        "problems": passed.problems,
        "end_to_end": table,
        "unscaled": raw,
        "exact": {"journal_bytes_per_write": journal_bytes},
    }


def _shut_down(server: _Server, *clients) -> None:
    for client in clients:
        client.close()
    server.stop()


def _traced(root: Path, workdir: Path, mains, side) -> dict:
    """The per-layer run: the traced rounds send ``"trace": true`` on every
    request; the layer split comes from the returned span trees and the
    ``stats`` op."""
    server, writer, reader = _set_up(root, workdir / "data", side)
    try:
        passed, deltas, finals = _replay(writer, reader, mains, side, True)
        finals.append(_session_stats(writer, SIDE))
    finally:
        _shut_down(server, writer, reader)
    layers = _layers(passed)
    writes = sum(len(s.steps) for s in mains)
    compiled = [block["plan_cache"] for block in finals]
    special = [block["specialized_plan_cache"] for block in finals]
    hits = sum(s["hits"] for s in special)
    requested = hits + sum(s["misses"] for s in special)
    layers.update({
        "service.fsyncs_per_write": deltas["fsyncs"] / writes,
        "plan.compile_misses": sum(s["misses"] for s in compiled),
        "plan.compile_ms": sum(s["compile_ns"] for s in compiled) / 1e6,
        "plan.specialize_ms": sum(s["specialize_ns"] for s in special) / 1e6,
        "plan.specialized_hit_share": hits / requested if requested else 0.0,
        "journal.bytes_per_write": deltas["bytes_written"] / writes,
    })
    return {
        **_outcome(mains, side, passed),
        "problems": passed.problems,
        "exact": {"journal_bytes_per_write": deltas["bytes_written"] / writes},
        "layers": layers,
        "traced_latencies": passed.traced_latencies,
        "untraced_latencies": passed.latencies,
        "spans": passed.log.spans,
    }


def _span_ms(trace: dict) -> dict[str, float]:
    """A wire span tree flattened to name -> total milliseconds."""
    out: dict[str, float] = {}
    todo = list(trace["spans"])
    while todo:
        span = todo.pop()
        out[span["name"]] = out.get(span["name"], 0.0) + span["duration_us"] / 1e3
        todo.extend(span.get("spans") or ())
    return out


def _layers(passed: _Pass) -> dict:
    """Service and engine layer metrics from the returned span trees."""
    lists: dict[str, list[float]] = {}
    writes = []
    for rid, kind, client_ms, trace, stats in passed.traces:
        spans = _span_ms(trace)
        if kind in WRITE_KINDS:
            writes.append((kind, spans, stats))
        if rid >= SIDE_BASE:
            continue  # the side session's writes count for the engine layers only
        parts = (("queue_wait", "writer_lock_wait", "journal_fsync") if kind in WRITE_KINDS
                 else ("worker_wait", "read_lock_wait", "read_eval"))
        for part in parts:
            # the server names a read's own evaluation span plain "eval"
            value = spans.get("eval" if part == "read_eval" else part, 0.0)
            lists.setdefault(f"service.{part}_ms.{kind}", []).append(value)
        lists.setdefault(f"service.wire_ms.{kind}", []).append(
            client_ms - trace["total_us"] / 1e3)
    out = {name: p50(values) for name, values in lists.items()}
    out.update(engine_layers(writes))
    return out
