"""Per-layer tracing from outside the program.

The tracer replaces public functions at their module attributes with
wrappers that record a span per call: name, start, end, parent span and
operation id.  Names bound by ``from ... import`` are wrapped in the
module that looks them up (``asymptotics.m2_count_closed``).  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` restores the originals,
so untraced passes run the unmodified program.

A layer's self time is its spans' busy time minus the busy time of
their child spans.  A generator span (``enumerate_points``) is busy only
inside ``next()``, not while its consumer runs the loop body.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name).  A name may be listed under several
# attributes.  Every attribute must exist: a traced run fails rather
# than read 0 for a layer whose function was renamed or inlined.
SPANS = [
    ("cli", "main", "cli.main"),
    ("covering", "verify_covering_exact", "covering.verify_covering_exact"),
    ("covering", "verify_covering_lp", "covering.verify_covering_lp"),
    ("covering", "decompose_simplex", "covering.decompose"),
    ("covering", "decompose_crosspolytope", "covering.decompose"),
    ("covering", "t_sequence", "covering.t_sequence"),
    ("covering", "gamma_upper_bound", "covering.gamma_upper_bound"),
    ("bodies", "contains_exact", "bodies.contains_exact"),
    ("bodies", "contains_float", "bodies.contains_float"),
    ("bodies", "vertices", "bodies.vertices"),
    ("bodies", "sample_boundary", "bodies.sample_boundary"),
    ("lattice_sets", "member", "lattice_sets.member"),
    ("combinatorics", "m1_count", "combinatorics.m1_count"),
    ("combinatorics", "m2_count_closed", "combinatorics.m2_count_closed"),
    ("asymptotics", "m2_count_closed", "combinatorics.m2_count_closed"),
    ("asymptotics", "k_of_n_simplex", "asymptotics.threshold"),
    ("asymptotics", "k_max_crosspolytope", "asymptotics.threshold"),
    ("asymptotics", "convergence_table", "asymptotics.convergence_table"),
    ("asymptotics", "solve_root", "asymptotics.solve_root"),
    ("asymptotics", "growth_constants", "asymptotics.growth_constants"),
    ("asymptotics", "rogers_zong_bound", "asymptotics.rogers_zong_bound"),
]
GENERATOR_SPANS = [("lattice_sets", "enumerate_points", "lattice_sets.enumerate_points")]
LAYERS = ("cli", "covering", "bodies", "lattice_sets", "combinatorics", "asymptotics")
VERIFY_SPANS = ("covering.verify_covering_exact", "covering.verify_covering_lp")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, package):
        self._package = package
        self._saved = []
        self.spans = []  # (name, start, end, busy, parent, op); None while open
        self.counts = defaultdict(int)
        self._stack = []
        self.op = -1

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._wrap(fn, name))
        for module, attr, name in GENERATOR_SPANS:
            self._patch(module, attr, lambda fn, name=name: self._wrap_generator(fn, name))
        # The threshold search gets its count function as an argument;
        # wrapping that argument counts the probes per threshold found.
        self._patch("asymptotics", "_largest_k", self._wrap_search)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module_name, attr, make) -> None:
        module = getattr(self._package, module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        return sid, parent

    def _wrap(self, fn, name):
        clock, stack, spans = time.perf_counter, self._stack, self.spans

        def traced(*args, **kwargs):
            sid, parent = self._open()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, end - start, parent, self.op)
            if name == "bodies.sample_boundary":
                self.counts["bodies.sample_boundary.points"] += len(result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        clock, stack, spans, counts = time.perf_counter, self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid, parent = self._open()
            op = self.op

            def steps():
                busy, first, end = 0.0, None, None
                try:
                    while True:
                        stack.append(sid)
                        start = clock()
                        first = start if first is None else first
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            end = clock()
                            busy += end - start
                            stack.pop()
                        counts[name + ".points"] += 1
                        yield item
                finally:
                    if first is not None:
                        spans[sid] = (name, first, end, busy, parent, op)

            return steps()

        return traced

    def _wrap_search(self, fn):
        counts = self.counts

        def traced(count, *args, **kwargs):
            def probe(k):
                counts["asymptotics.probes"] += 1
                return count(k)

            return fn(probe, *args, **kwargs)

        return traced


def summarize(tracer: Tracer, counters: dict, wall_s: float, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``counters`` are the verifier report counts the checks read from the
    output; ``wall_s`` is the traced pass's wall time.
    """
    spans, counts = tracer.spans, tracer.counts
    closed = [(sid, s) for sid, s in enumerate(spans) if s is not None]
    child_busy = defaultdict(float)
    for sid, (name, start, end, busy, parent, op) in closed:
        child_busy[parent] += busy
    calls, self_s, total = defaultdict(int), defaultdict(float), defaultdict(float)
    sweep = 0.0
    for sid, (name, start, end, busy, parent, op) in closed:
        calls[name] += 1
        total[name] += busy
        self_s[name] += busy - child_busy[sid]
        if name == "lattice_sets.enumerate_points" and parent >= 0 and spans[parent][0] in VERIFY_SPANS:
            sweep += end - start  # the whole translate loop, its body included

    m = {}
    for name in ("bodies.contains_exact", "bodies.vertices", "bodies.sample_boundary",
                 "bodies.contains_float", "covering.verify_covering_exact", "covering.decompose",
                 "lattice_sets.member", "combinatorics.m2_count_closed", "combinatorics.m1_count",
                 "asymptotics.threshold", "asymptotics.solve_root", "cli.main"):
        m[f"{name}.calls"] = calls[name]
    for name in ("bodies.contains_exact", "bodies.sample_boundary", "bodies.contains_float",
                 "covering.verify_covering_exact", "covering.verify_covering_lp",
                 "covering.decompose", "covering.t_sequence", "covering.gamma_upper_bound",
                 "lattice_sets.enumerate_points", "lattice_sets.member",
                 "combinatorics.m2_count_closed", "combinatorics.m1_count",
                 "asymptotics.threshold", "asymptotics.solve_root", "cli.main"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("covering.translates_checked", "covering.translate_failures",
                 "covering.witness_failures", "covering.peel_moves"):
        m[name] = counters.get(name, 0)
    m["bodies.sample_boundary.points"] = counts["bodies.sample_boundary.points"]
    m["lattice_sets.enumerate_points.points"] = counts["lattice_sets.enumerate_points.points"]
    m["bodies.vertices.calls_per_translate"] = _ratio(calls["bodies.vertices"], m["covering.translates_checked"])
    m["asymptotics.probes_per_threshold"] = _ratio(counts["asymptotics.probes"], calls["asymptotics.threshold"])
    m["cli.stdout_bytes"] = stdout_bytes
    for layer in LAYERS:
        m[f"{layer}.self_share"] = sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / wall_s
    m["split.sample"] = total["bodies.sample_boundary"] / wall_s
    m["split.decompose"] = total["covering.decompose"] / wall_s
    m["split.translate_sweep"] = sweep / wall_s
    m["split.threshold"] = total["asymptotics.threshold"] / wall_s
    return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0
