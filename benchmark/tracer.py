"""Outside-in tracing: spans and work counts around the package's public layers.

The tracer changes no source file. It replaces each traced function in every
``edge_ideal_lab.*`` namespace that binds it (and on the class, for methods)
with a wrapper, so calls made from inside ``stability``, ``battery`` and
``closure`` are seen too. Each wrapper records a span (id, name, start, end,
parent id, repetition id) in memory and adds to per-function counters:

* ``<layer>.<fn>.calls``, ``.total_s`` and ``.self_s``, where self time is
  total time minus the time of nested traced calls;
* the work counts named in ``COUNTS``.

Spans are written out when the repetition ends (``write_spans``).
"""

from __future__ import annotations

import sys
import time
from math import prod

# (layer module, function or Class.method) in the order metrics are reported
TRACED = (
    ("assprimes", "irreducible_decomposition"),
    ("assprimes", "associated_primes"),
    ("assprimes", "associated_primes_witness_oracle"),
    ("closure", "integral_closure_power"),
    ("closure", "np_member"),
    ("linalg", "feasible_nonneg"),
    ("graphs", "maximum_matching"),
    ("graphs", "berge_deficiency"),
    ("monomials", "MonomialIdeal.product"),
    ("monomials", "minimalize_rows"),
    ("monomials", "MonomialIdeal.contains"),
    ("battery", "colon_identity_holds"),
    ("stability", "both_chains"),
)


def _box(ideal) -> int:
    return prod(e + 1 for e in ideal.max_exponents())


# work counts: span name -> {count name: f(args, result) -> amount}
COUNTS = {
    "assprimes.irreducible_decomposition": {
        "components": lambda args, out: len(out),
        "box": lambda args, out: _box(args[0]),
    },
    "assprimes.associated_primes_witness_oracle": {
        "box": lambda args, out: _box(args[0]),
    },
    "closure.np_member": {"members": lambda args, out: int(bool(out))},
    "graphs.maximum_matching": {"vertices": lambda args, out: args[0].n},
    "graphs.berge_deficiency": {"subsets": lambda args, out: 1 << args[0].n},
    "monomials.MonomialIdeal.product": {"gens_out": lambda args, out: len(out)},
    "monomials.minimalize_rows": {
        "rows_in": lambda args, out: len(args[0]),
        "rows_out": lambda args, out: len(out),
    },
}

# integral_closure_power is memoized; its box_points and gens_out count the
# sweeps of cache misses only (see Tracer._wrap_closure)
CLOSURE = "closure.integral_closure_power"


class Tracer:
    def __init__(self, rep: int):
        self.rep = rep
        self.names = [f"{module}.{fn}" for module, fn in TRACED]
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.calls = dict.fromkeys(self.names, 0)
        self.total = dict.fromkeys(self.names, 0.0)
        self.self_time = dict.fromkeys(self.names, 0.0)
        self.counts = {
            f"{span}.{count}": 0 for span, fns in COUNTS.items() for count in fns
        }
        self.counts.update({f"{CLOSURE}.box_points": 0, f"{CLOSURE}.gens_out": 0})
        self._opened = 0
        self._stack: list[int] = []  # open span ids
        self._child: list[float] = []  # traced child time inside each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        import edge_ideal_lab

        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "edge_ideal_lab" or name.startswith("edge_ideal_lab."))
        ]
        for idx, (module, fn) in enumerate(TRACED):
            owner = getattr(edge_ideal_lab, module)
            if "." in fn:
                cls_name, attr = fn.split(".")
                targets = [(getattr(owner, cls_name), attr)]
                original = getattr(targets[0][0], attr)
            else:
                original = getattr(owner, fn)
                targets = [
                    (m, attr)
                    for m in modules
                    for attr, value in vars(m).items()
                    if value is original
                ]
            if self.names[idx] == CLOSURE:
                wrapper = self._wrap_closure(idx, original)
            else:
                wrapper = self._wrap(idx, original)
            for target, attr in targets:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        counters = [
            (f"{name}.{count}", f) for count, f in COUNTS.get(name, {}).items()
        ]

        def traced(*args, **kwargs):
            start = self._enter()
            try:
                out = fn(*args, **kwargs)
                for key, f in counters:
                    self.counts[key] += f(args, out)
            finally:
                self._exit(idx, start)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_closure(self, idx: int, fn):
        """integral_closure_power is memoized: count sweeps on cache misses only."""

        def traced(ideal, k, *args, **kwargs):
            start = self._enter()
            try:
                misses = fn.cache_info().misses
                out = fn(ideal, k, *args, **kwargs)
                if fn.cache_info().misses > misses:
                    self.counts[f"{CLOSURE}.box_points"] += prod(
                        k * e + 1 for e in ideal.max_exponents()
                    )
                    self.counts[f"{CLOSURE}.gens_out"] += len(out)
            finally:
                self._exit(idx, start)
            return out

        traced.__wrapped__ = fn
        return traced

    def _enter(self) -> float:
        self._opened += 1
        self._stack.append(self._opened)
        self._child.append(0.0)
        return time.perf_counter()

    def _exit(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        span_id = self._stack.pop()
        child = self._child.pop()
        duration = end - start
        name = self.names[idx]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._child:
            self._child[-1] += duration
        parent = self._stack[-1] if self._stack else 0
        self.spans.append((span_id, idx, start, end, parent))

    # -- results ------------------------------------------------------------

    def root_time(self) -> float:
        """Time inside outermost traced calls: the attributed part of a run."""
        return sum(end - start for _, _, start, end, parent in self.spans if parent == 0)

    def metrics(self) -> dict[str, float]:
        """Per-function calls, times and work counts, plus the cache hit share
        of ``associated_primes`` (one minus decompositions per call)."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
            out.update(
                (key, value)
                for key, value in self.counts.items()
                if key.rsplit(".", 1)[0] == name
            )
        members = out.pop("closure.np_member.members")
        calls = self.calls["closure.np_member"]
        out["closure.np_member.member_frac"] = members / calls if calls else 0.0
        asked = self.calls["assprimes.associated_primes"]
        decomposed = self.calls["assprimes.irreducible_decomposition"]
        out["assprimes.cache_hit_frac"] = 1 - decomposed / asked if asked else 0.0
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans: rep, id, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("rep\tid\tparent\tname\tstart\tend\n")
            for span_id, idx, start, end, parent in sorted(self.spans):
                fh.write(
                    f"{self.rep}\t{span_id}\t{parent}\t{self.names[idx]}\t"
                    f"{start:.9f}\t{end:.9f}\n"
                )
