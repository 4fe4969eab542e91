"""Span tracer for the eprseq layers, installed from outside the program.

``Tracer.install`` replaces module-level functions and methods of the
``eprseq`` modules with timing wrappers defined here, and ``uninstall``
puts the originals back; no line of ``src/eprseq`` changes.  A span is
recorded where a call crosses into a layer: name, start, end, parent span
and operation id.  A call from a span into a function with the same span
name (a layer calling itself) records nothing.  The determinant kernels
and field arithmetic are too hot for one span per call, so they are
aggregated: a call count, and for the kernels a time that is charged to
the enclosing span as child time.  Spans stay in memory until the run
writes them out.

Worker threads (``enumerate --jobs N``) keep their own span stack; a span
opened on an empty worker stack takes the main thread's innermost span as
its parent.
"""

from __future__ import annotations

import threading
from collections import Counter
from time import perf_counter

import eprseq
from eprseq import _engine, classify, cli, gfield, matrix, sequence, verify, witness

MODULES = (eprseq, cli, classify, witness, sequence, matrix, verify, _engine)

# lru caches cleared before every replayed operation, so each starts cold
# as a fresh process does.  Taken before any wrapper is installed.
CACHES = (_engine.det_table, _engine.letter_arrays, _engine.rank_array, verify._catalog_raw)

CONSTRUCTIONS = (
    "identity", "zeros", "ones", "complete_graph", "loop_split_graph",
    "loop_complete_graph", "pendant_loop_complete", "perfect_matching",
    "coned_matching", "loop_biclique", "clique_matching", "wide_clique_matching",
    "construct_named",
)
CONSTRUCT_METHODS = ("inverse", "schur_complement", "direct_sum", "append_duplicate_last", "append_zero")
TABLES = ("det_table", "letter_arrays", "rank_array")
TABLE_SPANS = tuple(f"engine.{fn}" for fn in TABLES)


def clear_caches() -> None:
    for cached in CACHES:
        cached.cache_clear()


class Span:
    __slots__ = ("id", "name", "parent", "op", "info", "t0", "t1", "leaf")

    def __init__(self, sid, name, parent, op, info):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.info = info
        self.t0 = self.t1 = 0.0
        self.leaf = 0.0  # time of aggregated kernel calls made directly inside

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "op": self.op, "info": self.info,
            "parent": None if self.parent is None else self.parent.id,
            "start": self.t0, "end": self.t1, "leaf": self.leaf,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self.table_bytes = 0  # largest per-op sum of table nbytes
        self._op_tables: dict = {}
        self._local = threading.local()
        self._main = self._stack()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self, stack: list) -> Span | None:
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else None

    def call(self, name, fn, args, kwargs, info=None):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = self._top(stack)
        if parent is not None and parent.name == name:
            return fn(*args, **kwargs)
        with self._lock:
            span = Span(len(self.spans), name, parent, self.op, info)
            self.spans.append(span)
        stack.append(span)
        span.t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.t1 = perf_counter()
            stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, info=None, post=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, info(*args, **kwargs) if info else None)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _kernel_wrapper(self, fn, counters):
        counts = self.counts

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            top = self._top(self._stack())
            if top is not None:
                top.leaf += dt
            counts["matrix.det.s"] += dt
            for c in counters:
                counts[c] += 1
            return result

        return wrapper

    def _counting_method(self, fn, counter):
        counts = self.counts

        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, home, attr, make) -> None:
        """Replace ``home.attr`` in every eprseq module that imported it."""
        orig = getattr(home, attr)
        new = make(orig)
        for mod in MODULES:
            if mod.__dict__.get(attr) is orig:
                self._patch(mod, attr, new)

    def _table_post(self, name):
        def post(args, result):
            arrays = result if isinstance(result, tuple) else (result,)
            self._op_tables[(name,) + args] = sum(a.nbytes for a in arrays)

        return post

    def install(self) -> None:
        span = self._span_wrapper
        for fn in ("classify_epr_z2", "classify_pr_char2", "rule_violations"):
            self._patch_everywhere(classify, fn, lambda f: span("classify", f))
        for fn in ("witness_epr_z2", "witness_pr_char2"):
            self._patch_everywhere(witness, fn, lambda f: span("witness", f))
        for fn in ("compute_epr", "compute_pr"):
            self._patch_everywhere(
                sequence, fn, lambda f: span("sequence", f, info=lambda m, *a, **k: m.n)
            )
        for fn in CONSTRUCTIONS:
            self._patch_everywhere(matrix, fn, lambda f: span("matrix.construct", f))
        for meth in CONSTRUCT_METHODS:
            self._patch(matrix.SymMatrix, meth, span("matrix.construct", getattr(matrix.SymMatrix, meth)))
        for fn in ("_gf2_det", "_generic_det"):
            orig = getattr(matrix, fn)
            self._patch(sequence, fn, self._kernel_wrapper(orig, ("matrix.det.calls", "sequence.minors")))
            self._patch(matrix, fn, self._kernel_wrapper(orig, ("matrix.det.calls",)))
        self._patch(gfield.FieldSpec, "mul", self._counting_method(gfield.FieldSpec.mul, "gfield.mul.calls"))
        self._patch(gfield.FieldSpec, "inv", self._counting_method(gfield.FieldSpec.inv, "gfield.inv.calls"))
        for fn in TABLES:
            name = f"engine.{fn}"
            self._patch_everywhere(_engine, fn, lambda f, name=name: span(name, f, post=self._table_post(name)))
        self._patch_everywhere(
            _engine, "catalog_gf2",
            lambda f: span("engine.catalog_gf2", f, info=lambda n, jobs=1: [n, jobs]),
        )
        self._patch_everywhere(
            _engine, "catalog_gf4", lambda f: span("engine.catalog_gf4", f, info=lambda n: [n])
        )
        self._patch_everywhere(_engine, "_merge_chunks", lambda f: span("engine.merge", f))
        for fn, name in (
            ("enumerate_epr", "verify.enumerate"),
            ("compare_with_classifier", "verify.compare"),
            ("theorem_suite", "verify.theorem_suite"),
        ):
            self._patch_everywhere(verify, fn, lambda f, name=name: span(name, f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def run_op(self, key: str, fn, *args):
        """One replayed operation inside a ``cli.main`` span."""
        self.op = key
        self._op_tables = {}
        try:
            return self.call("cli.main", fn, args, {})
        finally:
            self.table_bytes = max(self.table_bytes, sum(self._op_tables.values()))


# ---------------------------------------------------------------------------
# layer metrics
# ---------------------------------------------------------------------------

def _covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of ``intervals``."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``<layer>.s`` is self time: span durations minus the part covered by
    child spans and by aggregated kernel calls.  A layer the workload
    never enters reads 0.
    """
    spans = tracer.spans
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append(s)

    def dur(s):
        return s.t1 - s.t0

    def self_time(s):
        kids = children.get(s.id, ())
        return dur(s) - _covered(s.t0, s.t1, [(c.t0, c.t1) for c in kids]) - s.leaf

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_sum(name):
        return sum(self_time(s) for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    out["cli.main.s"] = (self_sum("cli.main"), "s")
    out["classify.calls"] = (len(named("classify")), "count")
    out["classify.s"] = (self_sum("classify"), "s")

    wit = named("witness")
    wit_total = sum(dur(s) for s in wit)
    reverify = sum(dur(c) for s in wit for c in children.get(s.id, ()) if c.name == "sequence")
    hidden = sum(
        _covered(s.t0, s.t1, [(c.t0, c.t1) for c in children.get(s.id, ()) if c.name in ("classify", "sequence")])
        for s in wit
    )
    out["witness.calls"] = (len(wit), "count")
    out["witness.build.s"] = (wit_total - hidden, "s")
    out["witness.reverify.s"] = (reverify, "s")
    out["witness.reverify_share"] = (ratio(reverify, wit_total), "ratio")

    seq = named("sequence")
    seq_total = sum(dur(s) for s in seq)
    minors = counts["sequence.minors"]
    out["sequence.calls"] = (len(seq), "count")
    out["sequence.s"] = (self_sum("sequence"), "s")
    out["sequence.minors"] = (minors, "count")
    out["sequence.visit_ratio"] = (ratio(minors, sum((1 << s.info) - 1 for s in seq)), "ratio")
    out["sequence.minors_per_s"] = (ratio(minors, seq_total), "minors/s")

    out["matrix.det.calls"] = (counts["matrix.det.calls"], "count")
    out["matrix.det.s"] = (counts["matrix.det.s"], "s")
    out["matrix.construct.s"] = (self_sum("matrix.construct"), "s")
    out["gfield.mul.calls"] = (counts["gfield.mul.calls"], "count")
    out["gfield.inv.calls"] = (counts["gfield.inv.calls"], "count")

    out["engine.det_table.s"] = (self_sum("engine.det_table"), "s")
    out["engine.letter_arrays.s"] = (self_sum("engine.letter_arrays"), "s")
    out["engine.table_bytes"] = (tracer.table_bytes, "bytes_computed")
    for field_name, q in (("gf2", 2), ("gf4", 4)):
        cat = named(f"engine.catalog_{field_name}")
        matrices = sum(q ** (s.info[0] * (s.info[0] + 1) // 2) for s in cat)
        out[f"engine.catalog_{field_name}.s"] = (self_sum(f"engine.catalog_{field_name}"), "s")
        out[f"engine.catalog_{field_name}.mps"] = (ratio(matrices, sum(dur(s) for s in cat)), "matrices/s")
    gf2 = named("engine.catalog_gf2")
    top_n = max((s.info[0] for s in gf2), default=0)
    serial = [dur(s) for s in gf2 if s.info == [top_n, 1]]
    parallel = [dur(s) for s in gf2 if s.info[0] == top_n and s.info[1] > 1]
    out["engine.jobs2_speedup"] = (ratio(serial[0], parallel[0]) if serial and parallel else 0.0, "ratio")
    out["engine.merge.s"] = (self_sum("engine.merge"), "s")

    out["verify.enumerate.s"] = (self_sum("verify.enumerate"), "s")
    out["verify.compare.s"] = (self_sum("verify.compare"), "s")
    out["verify.theorem_suite.s"] = (self_sum("verify.theorem_suite"), "s")
    suites = named("verify.theorem_suite")
    builds = [(s.t0, s.t1) for s in spans if s.name in TABLE_SPANS]
    in_tables = sum(_covered(suite.t0, suite.t1, builds) for suite in suites)
    out["verify.table_share"] = (ratio(in_tables, sum(dur(s) for s in suites)), "ratio")
    return out
