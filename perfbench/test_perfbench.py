"""Self-checks of the benchmark: deterministic scripts, enough samples per
request kind, oracles that reject wrong answers, exact counts that repeat.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import churn  # noqa: E402
import readmix  # noqa: E402
from measure import END_TO_END, HIGHER_IS_BETTER, PER_LAYER, SpanLog  # noqa: E402
from scripts import (  # noqa: E402
    WRITE_KINDS,
    ChurnSpec,
    components,
    connected_pairs,
    churn_script,
    forest_problem,
    read_mix_script,
)

SMALL = ChurnSpec(n=10, core=7, chords=4, victims=2, rounds=2)


def test_same_seed_same_script_other_seed_other_script():
    for make in (churn_script, lambda seed: read_mix_script(seed)[1]):
        first, again, other = make(7), make(7), make(8)
        assert first == again and first.digest() == again.digest()
        assert first != other and first.digest() != other.digest()
    rounds = read_mix_script(7)
    assert len({s.digest() for s in rounds}) == len(rounds)


def test_seeds_only_relabel_so_every_seed_does_isomorphic_work():
    for make in (churn_script, lambda seed: read_mix_script(seed)[3]):
        first, other = make(11), make(12)
        assert [kind for *_, kind in first.steps + first.reads] == [
            kind for *_, kind in other.steps + other.reads]
        assert first.after == other.after


def test_every_kind_gets_the_samples_its_metric_needs():
    for backend, rounds in churn.ROUNDS.items():
        counts = churn_script(1, ChurnSpec(rounds=rounds)).counts()
        assert all(counts[kind] >= 30 for kind in WRITE_KINDS), (backend, counts)
        assert counts["query"] >= 30 and counts["ask"] >= 30
    mains = read_mix_script(1)
    for kind in ("insert", "insert_join", "ask", "query"):
        assert sum(s.counts()[kind] for s in mains) >= 30
    side = churn_script(1, readmix.SIDE_SPEC).counts()
    assert all(side[kind] >= 8 for kind in WRITE_KINDS if kind.startswith("delete"))


def test_churn_rounds_revisit_one_state_sequence():
    script = churn_script(3, SMALL)
    half = len(script.steps) // 2
    writes = [s for s in script.steps if s[0] in ("ins", "del")]
    assert [s for s in script.steps[:half] if s[0] in ("ins", "del")] == writes[: len(writes) // 2]
    assert writes[: len(writes) // 2] == writes[len(writes) // 2 :]


def test_oracles_reject_corrupted_answers(tmp_path):
    script = churn_script(2, SMALL)
    engine, journal = churn._set_up("relational", script, tmp_path / "j.ndjson")
    truthful = engine.ask
    calls = []

    def lying_ask(name, **params):
        calls.append(params)
        answer = truthful(name, **params)
        return not answer if len(calls) == 5 else answer

    engine.ask = lying_ask
    passed = churn._Pass(engine, script, SMALL.rounds)
    passed.run()
    journal.close()
    assert len(passed.problems) == 1 and "reach" in passed.problems[0]

    labels = components(4, {(0, 1), (2, 3)})
    assert connected_pairs(labels) == {(0, 1), (1, 0), (2, 3), (3, 2)}
    edges = {(0, 1), (1, 2), (0, 2)}
    assert forest_problem(3, edges, {(0, 1), (1, 0), (1, 2), (2, 1)}) is None
    assert forest_problem(3, edges, {(0, 1), (1, 0)}) is not None  # not spanning
    assert forest_problem(3, edges, {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)})


class _FinalAnswers:
    """Stands in for the reader connection's closing, untimed queries."""

    def __init__(self, script) -> None:
        edges = [edge for _, edge, _ in script.steps]
        self.connected = sorted(connected_pairs(components(script.n, edges)))
        self.forest = []
        labels = list(range(script.n))
        for a, b in edges:  # a spanning forest by union-find
            if labels[a] != labels[b]:
                self.forest += [[a, b], [b, a]]
                old, new = labels[b], labels[a]
                labels = [new if x == old else x for x in labels]

    def request(self, item):
        return [list(row) for row in self.connected] if item["name"] == "connected" else self.forest


def test_read_bracket_rejects_an_answer_no_prefix_allows():
    script = read_mix_script(4)[0]
    first = script.steps[0][1]
    passed = readmix._Pass(None, _FinalAnswers(script))
    # before any insert was issued, nothing is connected
    passed.check_reads(script, "mix0", [(0, "ask", first, False, 0, 0)])
    assert passed.problems == []
    passed.check_reads(script, "mix0", [(0, "ask", first, True, 0, 0)])
    assert len(passed.problems) == 1
    # once the joining insert is acknowledged, the answer must be true
    passed.check_reads(script, "mix0", [(0, "ask", first, False, 1, 1)])
    assert len(passed.problems) == 2


def test_exact_counts_repeat(tmp_path):
    script = churn_script(5, SMALL)
    seen = []
    for i in range(2):
        log = SpanLog()
        passed, _, journal_bytes = churn._replay(
            "relational", script, SMALL.rounds, tmp_path / f"{i}.ndjson", log)
        assert passed.problems == [] and passed.failed == 0
        temporary = [stats["temporary_tuples"] for _, _, stats in passed.records]
        seen.append((script.digest(), journal_bytes, temporary))
    assert seen[0] == seen[1]


def test_metric_tables_match_benchmark_json():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    for metric in spec["per_layer"]:
        higher = metric["name"] in HIGHER_IS_BETTER
        assert metric["better"] == ("higher" if higher else "lower"), metric["name"]
