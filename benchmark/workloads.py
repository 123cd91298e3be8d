"""Benchmark workloads: seeded inputs, the computations, and their answer checks.

A workload is built from a seed into a list of tasks. Building (imports,
fixtures, corpus enumeration, seeded draws) is the set-up; running calls only
the package's public functions on the generated inputs; checking compares
every answer with the pins in ``pins.json``, which the seed code produced
(see ``make_pins.py``). One answer is one operation: a wrong answer or an
exception (a ``BudgetExceededError`` refusal included) counts as failed.

Prime sets are pinned as sorted lists of bitmasks over the vertex indices of
the unrelabeled input (bit i is variable ``x{i+1}``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product as iter_product
from pathlib import Path
from typing import Any, Callable

from edge_ideal_lab import (
    Graph,
    Monomial,
    assprimes,
    battery,
    closure,
    fixtures,
    graphs,
    stability,
)

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

FIG9_CLOSURE_CAP = 2 * 10**7  # the cap `eilab analyze` needs for FIG9 k=5
CORPUS_CLASSES = 30  # isomorphism classes of connected graphs on 2..5 vertices
CORPUS_MEMBERS = 3  # labeled graphs drawn per class (all of a smaller class)
BRIDGE_ENTRY = 2  # matching-bridge vectors a range over {0,1,2}^9

SIZES = {
    "full": {
        "fig9-chain": {"max_power": 4},
        "corpus-sweep": {"classes": CORPUS_CLASSES, "members": CORPUS_MEMBERS, "max_power": 3},
        "cross-check": {
            "oracle": (("FIG9", 3), ("ASSCE", 4)),
            "lp_max_power": 3,
            "bridge_vectors": 3000,
            "bridge_max_power": 3,
            "berge_graphs": 2,
            "berge_vertices": 16,
        },
    },
    "tiny": {
        "fig9-chain": {"max_power": 2},
        "corpus-sweep": {"classes": 3, "members": 1, "max_power": 2},
        "cross-check": {
            "oracle": (("FIG9", 1), ("ASSCE", 2)),
            "lp_max_power": 1,
            "bridge_vectors": 40,
            "bridge_max_power": 2,
            "berge_graphs": 1,
            "berge_vertices": 8,
        },
    },
}

WORKLOADS = tuple(SIZES["full"])


@dataclass
class Task:
    """One computation and the check of the answers it produces."""

    label: str
    ops: int
    compute: Callable[[], Any]
    check: Callable[[Any, dict], int]  # (answer, pins) -> number of wrong answers


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def load_pins(path: Path = PINS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def prime_masks(primes, index: dict[str, int]) -> list[int]:
    """A prime set as sorted bitmasks, with variable names mapped by `index`."""
    return sorted(sum(1 << index[name] for name in p.names) for p in primes)


def standard_index(n: int) -> dict[str, int]:
    return {f"x{i + 1}": i for i in range(n)}


def ideal_digest(ideal) -> str:
    """Short digest of an ideal's canonical minimal generators."""
    text = ";".join(",".join(map(str, g.exps)) for g in ideal.gens)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def graph_key(graph) -> str:
    """Pin key of a labeled graph on x1..xn: vertex count and sorted edges."""
    return f"{graph.n}:" + ",".join(f"{u}{v}" for u, v in graph.edges)


def class_key(graph) -> tuple:
    """Isomorphism invariant: each vertex's degree with its neighbours' degrees.

    It separates all 30 classes of connected graphs on at most five vertices,
    which ``corpus_classes`` checks.
    """
    deg = graph.degrees
    return (
        graph.n,
        tuple(
            sorted(
                (deg[v], tuple(sorted(deg[w] for w in graph.adjacency[v])))
                for v in range(graph.n)
            )
        ),
    )


def corpus_classes() -> list[list]:
    """The 771 connected labeled graphs on 2..5 vertices, grouped by class."""
    groups: dict[tuple, list] = {}
    for g in graphs.connected_graphs(2, 5):
        groups.setdefault(class_key(g), []).append(g)
    if len(groups) != CORPUS_CLASSES:
        raise RuntimeError(f"expected {CORPUS_CLASSES} classes, got {len(groups)}")
    return [groups[key] for key in sorted(groups)]


def bridge_vector(index: int) -> tuple[int, ...]:
    """The index-th vector of {0,1,2}^9 in lexicographic order."""
    digits = []
    for _ in range(9):
        index, d = divmod(index, BRIDGE_ENTRY + 1)
        digits.append(d)
    return tuple(reversed(digits))


def bridge_index(a) -> int:
    index = 0
    for d in a:
        index = index * (BRIDGE_ENTRY + 1) + d
    return index


def all_bridge_vectors():
    return iter_product(range(BRIDGE_ENTRY + 1), repeat=9)


def _count_wrong(pairs) -> int:
    return sum(1 for got, want in pairs if got != want)


# ---------------------------------------------------------------------------
# fig9-chain: both prime chains of the nine-vertex fixture, relabeled
# ---------------------------------------------------------------------------


def fig9_chain(seed: int, max_power: int) -> list[Task]:
    rng = random.Random(seed)
    perm = list(range(9))
    rng.shuffle(perm)
    base = fixtures.fig9()
    graph = Graph.from_edges(
        base.labels, [(perm[u], perm[v]) for u, v in base.edges]
    )
    # vertex i of FIG9 is vertex perm[i] of the relabeled graph
    back = {f"x{perm[i] + 1}": i for i in range(9)}

    def compute():
        return stability.both_chains(
            graphs.edge_ideal(graph),
            max_power,
            label="I(FIG9)",
            n1_bound=stability.stability_bound(graph),
            closure_cap=FIG9_CLOSURE_CAP,
        )

    def check(report, pins):
        want = pins["fig9"]
        pairs = []
        for k in range(max_power):
            pairs.append((prime_masks(report.ass_sets[k], back), want["ass"][k]))
            pairs.append(
                (prime_masks(report.closure_ass_sets[k], back), want["closure_ass"][k])
            )
        return _count_wrong(pairs)

    return [Task(f"fig9 perm={perm}", 2 * max_power, compute, check)]


# ---------------------------------------------------------------------------
# corpus-sweep: seed-drawn members of each isomorphism class
# ---------------------------------------------------------------------------


def corpus_sweep(seed: int, classes: int, members: int, max_power: int) -> list[Task]:
    """`members` distinct labeled graphs of each of `classes` classes (all
    graphs of a class with fewer), so the sample size does not depend on the
    seed and relabeling effects on the engines' cost average out."""
    rng = random.Random(seed)
    groups = corpus_classes()
    if classes < len(groups):
        groups = rng.sample(groups, classes)
    return [
        _corpus_task(graph, max_power)
        for group in groups
        for graph in rng.sample(group, min(members, len(group)))
    ]


def _corpus_task(graph, max_power: int) -> Task:
    key = graph_key(graph)
    index = standard_index(graph.n)

    def compute():
        ideal = graphs.edge_ideal(graph)
        power = ideal
        rows = []
        for k in range(1, max_power + 1):
            if k > 1:
                power = power.product(ideal)
            closed = closure.integral_closure_power(ideal, k)
            rows.append(
                (
                    assprimes.associated_primes(power),
                    closed,
                    assprimes.associated_primes(closed),
                    battery.colon_identity_holds(ideal, k),
                )
            )
        return rows

    def check(rows, pins):
        want = pins["corpus"][key]
        pairs = []
        for k, (ass, closed, closure_ass, colon) in enumerate(rows):
            pairs.append((prime_masks(ass, index), want["ass"][k]))
            pairs.append((ideal_digest(closed), want["closure"][k]))
            pairs.append((prime_masks(closure_ass, index), want["closure_ass"][k]))
            pairs.append((colon, want["colon"][k]))
        return _count_wrong(pairs)

    return Task(f"corpus {key}", 4 * max_power, compute, check)


# ---------------------------------------------------------------------------
# cross-check: the independent verification paths
# ---------------------------------------------------------------------------


def cross_check(
    seed: int,
    oracle,
    lp_max_power: int,
    bridge_vectors: int,
    bridge_max_power: int,
    berge_graphs: int,
    berge_vertices: int,
) -> list[Task]:
    rng = random.Random(seed)
    fig9 = fixtures.fig9()
    ideals = {"FIG9": graphs.edge_ideal(fig9), "ASSCE": fixtures.assce()}
    tasks = [_oracle_task(name, ideals[name], k) for name, k in oracle]
    tasks += [_lp_closure_task(ideals["ASSCE"], k) for k in range(1, lp_max_power + 1)]
    space = (BRIDGE_ENTRY + 1) ** 9
    draws = [bridge_vector(i) for i in rng.sample(range(space), bridge_vectors)]
    tasks.append(_bridge_task(fig9, ideals["FIG9"], draws, bridge_max_power))
    candidates = [a for a in all_bridge_vectors() if sum(a) == berge_vertices]
    tasks += [_berge_task(fig9, a) for a in rng.sample(candidates, berge_graphs)]
    return tasks


def _oracle_task(name: str, ideal, k: int) -> Task:
    index = standard_index(ideal.vset.n)

    def compute():
        witnesses = assprimes.associated_primes_witness_oracle(ideal.power(k))
        return [w.prime for w in witnesses]

    def check(primes, pins):
        want = pins[name.lower()]["ass"][k - 1]
        return _count_wrong([(prime_masks(primes, index), want)])

    return Task(f"oracle {name}^{k}", 1, compute, check)


def _lp_closure_task(ideal, k: int) -> Task:
    def compute():
        return closure.integral_closure_power(ideal, k)

    def check(closed, pins):
        got = [list(g.exps) for g in closed.gens]
        return _count_wrong([(got, pins["assce"]["closure"][k - 1])])

    return Task(f"lp closure ASSCE^{k}", 1, compute, check)


def _bridge_task(graph, ideal, draws, max_power: int) -> Task:
    """x^a lies in I^k exactly when k <= nu(G^a), for each drawn a."""

    def compute():
        powers = [ideal]
        for _ in range(max_power - 1):
            powers.append(powers[-1].product(ideal))
        out = []
        for a in draws:
            x_a = Monomial(ideal.vset, a)
            nu = graphs.power_index(graph, a)
            out.append((nu, tuple(p.contains(x_a) for p in powers)))
        return out

    def check(rows, pins):
        nus = pins["fig9"]["nu"]
        wrong = 0
        for a, (nu, members) in zip(draws, rows):
            want = int(nus[bridge_index(a)])
            expected = tuple(k <= want for k in range(1, max_power + 1))
            wrong += nu != want or members != expected
        return wrong

    return Task(f"bridge {len(draws)} vectors from {draws[0]}", len(draws), compute, check)


def _berge_task(graph, a) -> Task:
    """Berge's subset formula against the blossom deficiency of G^a."""

    def compute():
        flat = graphs.parallelize(graph, a).flat
        value, _ = graphs.berge_deficiency(flat)
        return value, graphs.deficiency(flat)

    def check(values, pins):
        pinned = sum(a) - 2 * int(pins["fig9"]["nu"][bridge_index(a)])
        return _count_wrong([(values, (pinned, pinned))])

    return Task(f"berge a={a}", 1, compute, check)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

BUILDERS = {
    "fig9-chain": fig9_chain,
    "corpus-sweep": corpus_sweep,
    "cross-check": cross_check,
}


def build(workload: str, seed: int, size: str = "full") -> list[Task]:
    return BUILDERS[workload](seed, **SIZES[size][workload])


def run(tasks: list[Task]) -> list:
    """Each task's answer, or the exception it raised."""
    results = []
    for task in tasks:
        try:
            results.append(task.compute())
        except Exception as exc:  # a refusal or a crash is a failed answer
            results.append(exc)
    return results


def check(tasks: list[Task], results: list, pins: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, labels of tasks with a failure) over all answers."""
    attempted = failed = 0
    bad = []
    for task, result in zip(tasks, results):
        attempted += task.ops
        if isinstance(result, Exception):
            wrong = task.ops
        else:
            try:
                wrong = min(task.ops, task.check(result, pins))
            except (KeyError, IndexError, TypeError, AttributeError):
                wrong = task.ops  # an answer of the wrong shape
        failed += wrong
        if wrong:
            bad.append(task.label)
    return attempted, failed, bad
