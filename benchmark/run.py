"""Benchmark of edge_ideal_lab: timed, answer-checked workloads in fresh interpreters.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each repetition is a fresh single-threaded interpreter (``worker.py``), as
every ``eilab`` invocation is, so the package's memo caches start cold and
each repetition has its own peak RSS. Repetitions run one after another
until the next one would end after S seconds (at least three are made).

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), the tracing overhead and the
time no traced layer accounts for. Metric names and units are those of
``BENCHMARK.json``. A table and the per-repetition samples go to stderr; the
last line of stdout is the JSON result. Workloads and their reasons are listed in ``DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_REPS = 3
HARD_STOP_S = 150  # never start a repetition that could end past this
DEADLINE_S = 170  # kill a repetition still running this long after the start
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_rep(workload: str, seed: int, rep: int, traced: bool, env, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(rep), str(int(traced))]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {rep} ran past the {DEADLINE_S} s deadline")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"repetition {rep} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    result["elapsed"] = time.perf_counter() - started
    return result


def run_reps(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Untraced repetitions (alternating with traced ones under trace) until
    the next one, judged by the last of its kind, would overrun the budget."""
    env = child_env()
    start = time.perf_counter()
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        timeout = DEADLINE_S - (time.perf_counter() - start)
        reps.append(run_rep(workload, seed, len(reps), traced, env, timeout))
        nxt = trace and len(reps) % 2 == 1
        same = [r["elapsed"] for r in reps if r["traced"] == nxt]
        estimate = same[-1] if same else reps[-1]["elapsed"]
        elapsed = time.perf_counter() - start
        if elapsed + estimate > HARD_STOP_S:
            break
        if len(reps) >= MIN_REPS and elapsed + estimate > seconds:
            break
    return reps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(reps: list[dict], trace: bool) -> dict[str, list[float]]:
    """Per-metric samples, one per repetition of the kind the mode reports."""
    if not trace:
        return {name: [r[name] for r in reps] for name in END_TO_END}
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    base = statistics.median(r["wall_s"] for r in untraced)
    samples["trace.wall_s"] = [r["wall_s"] for r in traced]
    samples["trace.overhead_frac"] = [r["wall_s"] / base - 1 for r in traced]
    samples["trace.unattributed_s"] = [r["wall_s"] - r["attributed_s"] for r in traced]
    samples["trace.unattributed_frac"] = [
        (r["wall_s"] - r["attributed_s"]) / r["wall_s"] for r in traced
    ]
    return samples


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "edge_ideal_lab" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'edge_ideal_lab'}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    if args.trace:
        for old in (ROOT / ".bench_out" / "spans").glob(f"{args.workload}-rep*.tsv"):
            old.unlink()
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    samples = summarize(reps, bool(args.trace))
    if set(samples) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(samples) ^ set(units))}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    kinds = "traced" if args.trace else "untraced"
    print(
        f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
        f"{failed}/{attempted} answers wrong (failed_frac {failed / attempted:.4g}); "
        f"metrics over {kinds} repetitions",
        file=sys.stderr,
    )
    print(f"{'metric':52} {'unit':6} {'n':>2} {'q1':>12} {'median':>12} {'q3':>12}", file=sys.stderr)
    if not args.trace:
        print("samples " + json.dumps(samples), file=sys.stderr)
    metrics = {}
    for m in listed:
        values = samples[m["name"]]
        q1, med, q3 = quartiles(values)
        print(f"{m['name']:52} {m['unit']:6} {len(values):2} {q1:12.6g} {med:12.6g} {q3:12.6g}", file=sys.stderr)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
