"""Regenerate ``pins.json``: the canonical answers the benchmark checks against.

Every input a seed can draw is pinned: the FIG9 prime chains for k=1..5, the
matching number of FIG9^a for every a in {0,1,2}^9, the ASSCE prime sets and
LP closures, and the per-graph table of the whole 771-graph corpus. The
answers come from the package's production paths; the witness oracle must
agree with them on the inputs the cross-check workload feeds it.

Run from the repository root (a few minutes of CPU):

    PYTHONPATH=src python3 benchmark/make_pins.py
"""

from __future__ import annotations

import json
import sys

from edge_ideal_lab import assprimes, battery, closure, fixtures, graphs, stability

from workloads import (
    FIG9_CLOSURE_CAP,
    PINS_PATH,
    all_bridge_vectors,
    corpus_classes,
    graph_key,
    ideal_digest,
    prime_masks,
    standard_index,
)

FIG9_MAX_POWER = 5
ASSCE_MAX_POWER = 4
ASSCE_LP_MAX_POWER = 3
CORPUS_MAX_POWER = 3


def fig9_pins() -> dict:
    graph = fixtures.fig9()
    index = standard_index(9)
    report = stability.both_chains(
        graphs.edge_ideal(graph), FIG9_MAX_POWER, closure_cap=FIG9_CLOSURE_CAP
    )
    nu = "".join(str(graphs.power_index(graph, a)) for a in all_bridge_vectors())
    return {
        "ass": [prime_masks(s, index) for s in report.ass_sets],
        "closure_ass": [prime_masks(s, index) for s in report.closure_ass_sets],
        "nu": nu,
    }


def assce_pins() -> dict:
    ideal = fixtures.assce()
    index = standard_index(6)
    return {
        "ass": [
            prime_masks(assprimes.associated_primes(ideal.power(k)), index)
            for k in range(1, ASSCE_MAX_POWER + 1)
        ],
        "closure": [
            [list(g.exps) for g in closure.integral_closure_power(ideal, k).gens]
            for k in range(1, ASSCE_LP_MAX_POWER + 1)
        ],
    }


def corpus_pins() -> dict:
    table = {}
    for members in corpus_classes():
        for graph in members:
            ideal = graphs.edge_ideal(graph)
            index = standard_index(graph.n)
            entry = {"ass": [], "closure": [], "closure_ass": [], "colon": []}
            for k in range(1, CORPUS_MAX_POWER + 1):
                closed = closure.integral_closure_power(ideal, k)
                entry["ass"].append(
                    prime_masks(assprimes.associated_primes(ideal.power(k)), index)
                )
                entry["closure"].append(ideal_digest(closed))
                entry["closure_ass"].append(
                    prime_masks(assprimes.associated_primes(closed), index)
                )
                entry["colon"].append(battery.colon_identity_holds(ideal, k))
            table[graph_key(graph)] = entry
    return table


def check_oracle(pins: dict) -> None:
    """The witness oracle agrees with the pinned production answers."""
    ideals = {"fig9": graphs.edge_ideal(fixtures.fig9()), "assce": fixtures.assce()}
    for name, k in (("fig9", 3), ("assce", 4)):
        ideal = ideals[name]
        witnesses = assprimes.associated_primes_witness_oracle(ideal.power(k))
        got = prime_masks([w.prime for w in witnesses], standard_index(ideal.vset.n))
        if got != pins[name]["ass"][k - 1]:
            raise SystemExit(f"witness oracle disagrees on {name}^{k}")


def dump(pins: dict) -> str:
    """JSON with one corpus graph per line, so pin diffs stay readable."""
    lines = ["{"]
    for name in ("fig9", "assce"):
        lines.append(f'"{name}": {json.dumps(pins[name], separators=(",", ":"))},')
    lines.append('"corpus": {')
    entries = [
        f'"{key}": {json.dumps(value, separators=(",", ":"))}'
        for key, value in pins["corpus"].items()
    ]
    lines.append(",\n".join(entries))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main() -> int:
    pins = {"fig9": fig9_pins(), "assce": assce_pins(), "corpus": corpus_pins()}
    check_oracle(pins)
    text = dump(pins)
    json.loads(text)
    PINS_PATH.write_text(text)
    print(f"wrote {PINS_PATH} ({len(pins['corpus'])} corpus graphs)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
