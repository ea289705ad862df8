"""Seeded request scripts and the benchmark's own oracles.

Everything here is plain Python over tuples: no import from the program
under test, so the scripts, their classification and the answers they are
checked against stay independent of the code being measured.

A script is a list of steps ``(op, args, kind)``:

* ``("ins", (a, b), kind)`` / ``("del", (a, b), kind)`` — a write;
* ``("ask", (s, t), "ask")`` — point ``ask reach s t``;
* ``("query", (), "query")`` — ``query connected``.

The write kind is decided before anything runs, by :class:`ForestModel`,
which mirrors reach_u's spanning-forest rules (Theorem 4.1 with footnote 2's
lexicographically least replacement edge).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WRITE_KINDS = ("insert", "insert_join", "delete_tree", "delete_bridge", "delete_nontree")
READ_KINDS = ("ask", "query")
KINDS = WRITE_KINDS + READ_KINDS


def canon(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def components(n: int, edges) -> list[int]:
    """Component label per vertex (the smallest vertex of its component),
    by union-find over undirected ``edges``."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(n)]


def connected_pairs(labels: list[int]) -> set[tuple[int, int]]:
    """``query connected``'s answer: ordered pairs x != y in one component."""
    groups: dict[int, list[int]] = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, []).append(v)
    return {(x, y) for g in groups.values() for x in g for y in g if x != y}


def forest_problem(n: int, edges: set, forest_rows) -> str | None:
    """Why ``forest_rows`` (``query forest``, both orientations) is not a
    spanning forest of the undirected ``edges``, or None when it is."""
    rows = set(forest_rows)
    if any((b, a) not in rows for a, b in rows):
        return "forest relation is not symmetric"
    forest = {canon(a, b) for a, b in rows}
    if not forest <= edges:
        return f"forest edges outside E: {sorted(forest - edges)[:4]}"
    if components(n, forest) != components(n, edges):
        return "forest components differ from the graph's"
    # a forest over c components of n vertices has exactly n - c edges
    if len(forest) != n - len(set(components(n, edges))):
        return "forest has a cycle"
    return None


def write_problems(model: "ForestModel", op: str, edge, kind: str, forest_rows) -> list[str]:
    """Replay one write on ``model`` and check, against the program's
    ``query forest`` answer after it, that the scripted kind held and the
    forest is a spanning forest of the edges sent — the model's own forest,
    or the delete kinds would be misclassified."""
    modelled = model.insert(*edge) if op == "ins" else model.delete(*edge)
    if modelled != kind:
        return [f"{op}{edge} replayed as {modelled}, scripted {kind}"]
    problem = forest_problem(model.n, model.edges, forest_rows)
    if problem:
        return [f"after {op}{edge}: {problem}"]
    if {canon(a, b) for a, b in forest_rows} != model.forest:
        return [f"after {op}{edge}: forest differs from the least-replacement model"]
    return []


class ForestModel:
    """reach_u's forest upkeep, replayed on plain sets, to classify writes.

    Insert joins two trees iff its endpoints are in different trees (the
    edge then enters the forest).  Deleting a forest edge (a, b) severs the
    tree; the replacement is the least ordered pair (x, y) of a surviving
    edge with x on a's side and y on b's side — none means a bridge.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.edges: set[tuple[int, int]] = set()
        self.forest: set[tuple[int, int]] = set()

    def copy(self) -> "ForestModel":
        other = ForestModel(self.n)
        other.edges = set(self.edges)
        other.forest = set(self.forest)
        return other

    def state(self) -> tuple[frozenset, frozenset]:
        return frozenset(self.edges), frozenset(self.forest)

    def _tree_of(self, v: int) -> set[int]:
        adjacent: dict[int, list[int]] = {}
        for a, b in self.forest:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
        seen, todo = {v}, [v]
        while todo:
            for w in adjacent.get(todo.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def insert(self, a: int, b: int) -> str:
        edge = canon(a, b)
        if edge in self.edges:
            raise ValueError(f"edge {edge} is already present")
        self.edges.add(edge)
        if b in self._tree_of(a):
            return "insert"
        self.forest.add(edge)
        return "insert_join"

    def delete(self, a: int, b: int) -> str:
        edge = canon(a, b)
        self.edges.remove(edge)
        if edge not in self.forest:
            return "delete_nontree"
        self.forest.remove(edge)
        side_a, side_b = self._tree_of(a), self._tree_of(b)
        crossing = [
            (x, y)
            for p, q in self.edges
            for x, y in ((p, q), (q, p))
            if x in side_a and y in side_b
        ]
        if not crossing:
            return "delete_bridge"
        self.forest.add(canon(*min(crossing)))
        return "delete_tree"

    def crossing(self, edge: tuple[int, int]) -> list[tuple[int, int]]:
        """The other edges that cross the cut deleting forest ``edge`` makes."""
        trial = self.copy()
        trial.forest.remove(edge)
        side_a, side_b = trial._tree_of(edge[0]), trial._tree_of(edge[1])
        return sorted(
            e for e in self.edges
            if e != edge and ((e[0] in side_a and e[1] in side_b)
                              or (e[0] in side_b and e[1] in side_a))
        )


@dataclass(frozen=True)
class ChurnSpec:
    """The make-up of a churn script (see the README for the chosen values)."""

    n: int = 20
    core: int = 14  # vertices of the cyclic core; the rest hang off it
    chords: int = 8  # core edges beyond its spanning tree
    victims: int = 6  # delete samples per delete kind per round
    rounds: int = 6
    asks_per_write: int = 1  # each right after its write: one latency shape
    queries: bool = True  # one `query connected` after each group, in the base state


@dataclass(frozen=True)
class ReadMixSpec:
    """The make-up of the read-mix scripts."""

    n: int = 48
    inserts: int = 210  # writer connection: distinct edges from an empty graph
    query_every: int = 2  # reader: one `ask reach` after every insert, and
    #                       one `query connected` after every this many
    rounds: int = 12  # main phases, each on a fresh session


#: fixes the graph shapes, and on churn also the rotation order and the ask
#: pairs; ``--seed`` relabels the vertices (and picks read-mix's asks), so
#: every seed replays isomorphic work
SHAPE_SEED = 0


@dataclass
class Script:
    n: int
    setup: list  # writes that load the initial graph (part of set-up)
    steps: list  # the measured requests (the writer's, on read-mix)
    reads: list = field(default_factory=list)  # read-mix: the reader's requests
    #: read-mix: per read, how many of ``steps`` are answered before it is sent
    after: list = field(default_factory=list)

    def digest(self) -> str:
        payload = json.dumps(
            [self.n, self.setup, self.steps, self.reads, self.after], separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in KINDS}
        for _, _, kind in self.steps + self.reads:
            out[kind] += 1
        return out


def _churn_shape(spec: ChurnSpec) -> tuple[list, list]:
    """(edges in insertion order, delete/reinsert groups): a connected graph
    — a random tree over ``core`` vertices plus ``chords`` extra core edges,
    the other vertices hung off the core as pendants — and churn groups over
    ``victims`` bridges, ``victims`` non-forest edges, and forest edges
    whose cut exactly one chord crosses.  Deleting such an edge (a, b)
    promotes that chord r; deleting r then restores (a, b) whatever the
    labels, so each group returns edges and forest to the base state."""
    rng = random.Random(SHAPE_SEED)
    tree_groups = (spec.victims + 1) // 2
    while True:
        order = list(range(spec.n))
        rng.shuffle(order)
        core, pendants = order[: spec.core], order[spec.core :]
        edges = [canon(core[i], core[rng.randrange(i)]) for i in range(1, len(core))]
        while len(edges) < len(core) - 1 + spec.chords:
            edge = canon(*rng.sample(core, 2))
            if edge not in edges:
                edges.append(edge)
        edges += [canon(v, rng.choice(core)) for v in pendants]
        rng.shuffle(edges)
        model = ForestModel(spec.n)
        for edge in edges:
            model.insert(*edge)
        bridges, single, chords = [], [], sorted(model.edges - model.forest)
        for edge in sorted(model.forest):
            crossing = model.crossing(edge)
            if not crossing:
                bridges.append([("del", edge), ("ins", edge)])
            elif len(crossing) == 1:
                chord = crossing[0]
                single.append([("del", edge), ("ins", edge), ("del", chord), ("ins", chord)])
        if len(bridges) >= spec.victims and len(chords) >= spec.victims and len(single) >= tree_groups:
            groups = (rng.sample(bridges, spec.victims)
                      + [[("del", e), ("ins", e)] for e in rng.sample(chords, spec.victims)]
                      + rng.sample(single, tree_groups))
            return edges, groups


def churn_script(seed: int, spec: ChurnSpec = ChurnSpec()) -> Script:
    """Initial graph, then ``rounds`` repetitions of one fixed rotation of
    the shape's delete/reinsert groups.  Every group returns the structure
    to the base state, so every round replays the identical state sequence.
    The rotation order and the ask pairs are drawn in the shape's own
    labels, so ``seed`` changes the vertex names and nothing else: every
    seed's requests meet isomorphic states, in the same order."""
    edges, groups = _churn_shape(spec)
    shape = random.Random(SHAPE_SEED)
    rotation = list(groups)
    shape.shuffle(rotation)
    perm = list(range(spec.n))
    random.Random(seed).shuffle(perm)

    def relabel(edge: tuple[int, int]) -> tuple[int, int]:
        return canon(perm[edge[0]], perm[edge[1]])

    model = ForestModel(spec.n)
    for edge in edges:
        model.insert(*edge)
    base = model.state()
    steps: list = []
    for _ in range(spec.rounds):
        for group in rotation:
            for op, edge in group:
                kind = model.insert(*edge) if op == "ins" else model.delete(*edge)
                steps.append((op, relabel(edge), kind))
                for _ in range(spec.asks_per_write):
                    s, t = shape.sample(range(spec.n), 2)
                    steps.append(("ask", (perm[s], perm[t]), "ask"))
            if model.state() != base:
                raise AssertionError(f"churn group {group} does not return to the base state")
            if spec.queries:
                steps.append(("query", (), "query"))
    return Script(spec.n, [("ins", relabel(edge), "setup") for edge in edges], steps)


def _insert_stream(rng: random.Random, n: int, inserts: int) -> list[tuple[int, int]]:
    """Distinct edges from an empty graph whose n - 1 joining inserts are
    spread evenly through the stream (the others land inside a tree), so
    both insert kinds are sampled all through a round."""
    label = list(range(n))
    present: set[tuple[int, int]] = set()
    stream = []
    for i in range(inserts):
        inside = [
            (a, b) for a in range(n) for b in range(a + 1, n)
            if label[a] == label[b] and (a, b) not in present
        ]
        joins = n - len(set(label))
        if joins < n - 1 and (not inside or i * (n - 1) >= joins * inserts):
            a = rng.randrange(n)
            b = rng.choice([v for v in range(n) if label[v] != label[a]])
            old = label[b]
            label = [label[a] if x == old else x for x in label]
            edge = canon(a, b)
        else:
            edge = rng.choice(inside)
        present.add(edge)
        stream.append(edge)
    return stream


def read_mix_script(seed: int, spec: ReadMixSpec = ReadMixSpec()) -> list[Script]:
    """One script per main round.  Writer steps: an insert-only stream of
    distinct edges from an empty graph — one fixed stream, relabelled afresh
    every round, so the rounds do isomorphic work on mostly different
    edges.  Reader steps, each sent once the inserts before it are
    answered: one point ask after every insert (its pair drawn in the
    stream's own labels, so every seed asks isomorphic questions) and a
    `query connected` after every ``query_every``-th."""
    stream = _insert_stream(random.Random(SHAPE_SEED), spec.n, spec.inserts)
    shape = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    rounds = []
    for _ in range(spec.rounds):
        perm = list(range(spec.n))
        rng.shuffle(perm)
        model = ForestModel(spec.n)
        writes, reads, after = [], [], []
        for i, edge in enumerate(stream, 1):
            edge = canon(perm[edge[0]], perm[edge[1]])
            writes.append(("ins", edge, model.insert(*edge)))
            s, t = shape.sample(range(spec.n), 2)
            reads.append(("ask", (perm[s], perm[t]), "ask"))
            after.append(i)
            if i % spec.query_every == 0:
                reads.append(("query", (), "query"))
                after.append(i)
        rounds.append(Script(spec.n, [], writes, reads, after))
    return rounds
