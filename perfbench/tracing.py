"""Per-layer tracing from outside the program.

The traced run replaces public names of valflag with wrappers, in every
valflag module namespace that binds them (``filters.fm_feasible`` as well
as ``polyhedra.fm_feasible``), so calls between modules pass through the
wrappers too.  A span wrapper records calls and self time (its duration
minus the time of the spans it caused); a count wrapper, used for the
Scalar methods that run millions of times, records calls only.  A name
that the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, kind); kind "span" or "count".
TARGETS = [
    ("scalars.Scalar", "valflag.scalars", "Scalar.__init__", "count"),
    ("scalars.sign", "valflag.scalars", "Scalar.sign", "count"),
    *[("scalars.arith", "valflag.scalars", f"Scalar.{op}", "count")
      for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__")],
    ("scalars.parse_scalar", "valflag.scalars", "parse_scalar", "span"),
    ("linalg.integer_kernel", "valflag.linalg", "integer_kernel", "span"),
    ("linalg.hermite_form", "valflag.linalg", "hermite_form", "span"),
    ("linalg.field_rref", "valflag.linalg", "field_rref", "span"),
    ("tropical.parse_term", "valflag.tropical", "parse_term", "span"),
    ("prime.canonicalize", "valflag.prime", "canonicalize", "span"),
    ("prime.decide_equal", "valflag.prime", "decide_equal", "span"),
    ("prime.sign_lex", "valflag.prime", "DefiningMatrix.sign_lex", "count"),
    ("prime.compare_terms", "valflag.prime", "compare_terms", "count"),
    ("prime.final_kernel", "valflag.prime", "final_kernel", "count"),
    ("polyhedra.fm_feasible", "valflag.polyhedra", "fm_feasible", "span"),
    ("polyhedra.is_neighborhood", "valflag.polyhedra", "is_neighborhood", "span"),
    ("polyhedra.dim", "valflag.polyhedra", "GammaPolyhedron.dim", "span"),
    ("filters.filter_member", "valflag.filters", "filter_member", "span"),
    ("filters.farkas_certify", "valflag.filters", "farkas_certify", "span"),
    ("filters.mindim_witness", "valflag.filters", "mindim_witness", "span"),
    ("cli.load", "valflag.cli", "load_matrix", "span"),
    ("cli.load", "valflag.cli", "load_polyset", "span"),
    ("cli.main", "valflag.cli", "main", "span"),
]

# Extra per-call quantities: metric name -> (prefix, function of the args).
EXTRAS = {
    "polyhedra.fm_feasible.rows_in": ("polyhedra.fm_feasible", lambda args: len(args[0].rows)),
}

# The per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = [
    ("scalars.Scalar.calls", "count"),
    ("scalars.sign.calls", "count"),
    ("scalars.arith.calls", "count"),
    ("linalg.integer_kernel.calls", "count"),
    ("linalg.integer_kernel.self_s", "s"),
    ("linalg.hermite_form.calls", "count"),
    ("linalg.hermite_form.self_s", "s"),
    ("linalg.field_rref.calls", "count"),
    ("linalg.field_rref.self_s", "s"),
    ("prime.canonicalize.self_s", "s"),
    ("prime.decide_equal.self_s", "s"),
    ("prime.sign_lex.calls", "count"),
    ("prime.compare_terms.calls", "count"),
    ("prime.final_kernel.calls", "count"),
    ("polyhedra.fm_feasible.calls", "count"),
    ("polyhedra.fm_feasible.self_s", "s"),
    ("polyhedra.fm_feasible.rows_in", "count"),
    ("polyhedra.is_neighborhood.calls", "count"),
    ("polyhedra.is_neighborhood.self_s", "s"),
    ("polyhedra.dim.calls", "count"),
    ("polyhedra.dim.self_s", "s"),
    ("filters.filter_member.self_s", "s"),
    ("filters.farkas_certify.self_s", "s"),
    ("filters.mindim_witness.self_s", "s"),
    ("tropical.parse_term.self_s", "s"),
    ("scalars.parse_scalar.self_s", "s"),
    ("cli.load.self_s", "s"),
    ("cli.main.self_s", "s"),
]


class Tracer:
    """Wrappers record only while ``active`` is set, i.e. inside the timed
    call of an operation; spans are kept only while ``keep`` is set."""

    def __init__(self):
        self.active = False
        self.keep = False
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.extra = defaultdict(int)
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self._stack = []  # [span id, child ns]
        self._next_id = 0
        self._undo = []
        self.absent = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for prefix, module, path, kind in TARGETS:
            mod = sys.modules.get(module)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{path}")
                continue
            extras = [(name, fn) for name, (p, fn) in EXTRAS.items() if p == prefix]
            make = self._span if kind == "span" else self._count
            wrapper = functools.wraps(original)(make(prefix, original, extras))
            if owner_name:
                self._replace(owner, attr, wrapper)
            else:
                for name, m in list(sys.modules.items()):
                    if name == "valflag" or name.startswith("valflag."):
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._replace(m, key, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count(self, prefix, f, extras):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.active:
                calls[prefix] += 1
            return f(*args, **kwargs)
        return wrapper

    def _span(self, prefix, f, extras):
        def wrapper(*args, **kwargs):
            if not self.active:
                return f(*args, **kwargs)
            for name, fn in extras:
                self.extra[name] += fn(args)
            return self.timed(prefix, f, *args, **kwargs)
        return wrapper

    # -- recording ------------------------------------------------------

    def timed(self, name, f, *args, **kwargs):
        """Call f inside a span named name, nested under the open span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, 0]
        self._next_id += 1
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return f(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            took = t1 - t0
            self.calls[name] += 1
            self.self_ns[name] += took - frame[1]
            if parent is not None:
                parent[1] += took
            if self.keep:
                self.spans.append((frame[0], parent[0] if parent else None, name, t0, t1))

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.extra.clear()

    def snapshot(self) -> dict:
        """This pass's per-layer metrics (absent names read 0)."""
        out = {}
        for metric, unit in METRICS:
            prefix, _, field = metric.rpartition(".")
            if metric in EXTRAS:
                out[metric] = self.extra[metric]
            elif field == "calls":
                out[metric] = self.calls[prefix]
            else:
                out[metric] = self.self_ns[prefix] / 1e9
        return out
