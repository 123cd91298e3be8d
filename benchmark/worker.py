"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

    python3 benchmark/worker.py WORKLOAD SEED REP TRACE

Imports the package from ``src`` of the checkout, builds the seeded inputs
(the set-up), runs the workload, checks every answer against the pins and
prints one JSON object. With TRACE=1 the package's layers are traced and the
spans are written to ``.bench_out/spans/WORKLOAD-repREP.tsv``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed, rep, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"

    import edge_ideal_lab
    import workloads

    if not Path(edge_ideal_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"edge_ideal_lab imported from {edge_ideal_lab.__file__}, not src", file=sys.stderr)
        return 2
    tasks = workloads.build(workload, seed)
    setup_s = time.perf_counter() - START

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(rep)
        tracer.install()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    results = workloads.run(tasks)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()

    attempted, failed, bad = workloads.check(tasks, results, workloads.load_pins())
    for label in bad:
        print(f"wrong answer: {workload} seed {seed}: {label}", file=sys.stderr)
    for result in results:
        if isinstance(result, Exception):
            print(f"raised: {type(result).__name__}: {result}", file=sys.stderr)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["attributed_s"] = tracer.root_time()
        spans = ROOT / ".bench_out" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans / f"{workload}-rep{rep}.tsv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
