"""Tests of the benchmark itself: seeds, answer checks, tracing, refusal.

    python3 -m pytest benchmark/test_bench.py -q
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from edge_ideal_lab import BudgetExceededError, stability  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


@pytest.fixture(scope="module")
def tiny_runs():
    """(tasks, results) of each workload at tiny size for seeds 1 and 2."""
    runs = {}
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            tasks = workloads.build(name, seed, size="tiny")
            runs[name, seed] = tasks, workloads.run(tasks)
    return runs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_draw_different_inputs_that_pass(name, tiny_runs, pins):
    labels = {}
    for seed in (1, 2):
        tasks, results = tiny_runs[name, seed]
        attempted, failed, bad = workloads.check(tasks, results, pins)
        assert attempted > 0
        assert failed == 0, bad
        labels[seed] = [t.label for t in tasks]
    assert labels[1] != labels[2]


def _drop_first_prime(pins):
    pins["fig9"]["ass"][0] = pins["fig9"]["ass"][0][1:]


def _flip_colon_pins(pins):
    for entry in pins["corpus"].values():
        entry["colon"][0] = not entry["colon"][0]


def _empty_lp_closure_pin(pins):
    pins["assce"]["closure"][0] = []


CORRUPTIONS = {
    "fig9-chain": _drop_first_prime,
    "corpus-sweep": _flip_colon_pins,
    "cross-check": _empty_lp_closure_pin,
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_pin_makes_answers_fail(name, tiny_runs, pins):
    bad_pins = copy.deepcopy(pins)
    CORRUPTIONS[name](bad_pins)
    tasks, results = tiny_runs[name, 1]
    attempted, failed, _ = workloads.check(tasks, results, bad_pins)
    assert failed / attempted > 0


def test_refusals_and_crashes_count_as_failed(pins):
    def refuse():
        raise BudgetExceededError("cap")

    tasks = [
        workloads.Task("refused", 3, refuse, lambda out, p: 0),
        workloads.Task("ok", 2, lambda: 1, lambda out, p: 0),
        workloads.Task("bad shape", 1, lambda: None, lambda out, p: out[0]),
    ]
    attempted, failed, bad = workloads.check(tasks, workloads.run(tasks), pins)
    assert (attempted, failed, bad) == (6, 4, ["refused", "bad shape"])


def test_tracer_sees_calls_made_inside_the_package(pins):
    original = stability.associated_primes
    tracer = Tracer(rep=0)
    tracer.install()
    try:
        tasks = workloads.build("fig9-chain", 3, size="tiny")
        results = workloads.run(tasks)
    finally:
        tracer.uninstall()
    assert stability.associated_primes is original
    assert workloads.check(tasks, results, pins)[1] == 0
    metrics = tracer.metrics()
    assert metrics["stability.both_chains.calls"] == 1
    # both chains at k<=2 ask for four prime sets from inside stability
    assert metrics["assprimes.associated_primes.calls"] == 4
    for name in tracer.names:
        assert 0 <= metrics[f"{name}.self_s"] <= metrics[f"{name}.total_s"] + 1e-9
    # building the edge ideal minimalizes its rows outside both_chains
    assert metrics["stability.both_chains.total_s"] < tracer.root_time()


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "fig9-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
