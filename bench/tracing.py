"""Spans around btfuzz's public functions, patched in from outside `src/`.

Each wrapped call opens a span (name, start, end, parent, trace id); a
call made while no span is open starts a new trace.  Per-decision calls
(DecisionStream choice/emit operations, FileBuffer methods, the IDAT
codec) are too many to keep one by one: they are leaves, summed per
enclosing span as a call count plus total time.  The format oracle
(`btfuzz.formats.verify`) gets spans too, so the formats layer has a
self time on templates without a codec.  A span's self time is
its duration minus the time its child spans and leaves cover.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import btfuzz.cli
import btfuzz.decisionstream
import btfuzz.engine
import btfuzz.formats
import btfuzz.formats.zstream
import btfuzz.harness
import btfuzz.mutation
import btfuzz.runtime

DECISION_OPS = ("draw_raw", "evil_gate", "choose_index", "choose_bounded",
                "choose_value", "choose_token", "emit_bounded", "emit_index",
                "emit_raw", "emit_value", "emit_token")
BUFFER_OPS = ("write", "reserve", "reserved_block", "finalize", "read",
              "peek", "seek", "tell")
MUTATION_OPS = ("abstract", "replace", "delete", "insert")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trace", "ok",
                 "covered", "leaves")

    def __init__(self, sid, name, parent, trace):
        self.id = sid
        self.name = name
        self.parent = parent
        self.trace = trace
        self.ok = True
        self.covered = 0.0  # time covered by child spans and leaves
        self.leaves: dict[str, list] = {}
        self.start = perf_counter()
        self.end = self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "trace": self.trace,
                "parent": self.parent.id if self.parent else None,
                "start": self.start, "end": self.end, "ok": self.ok,
                "leaves": self.leaves}


class Tracer:
    """Collects spans while installed; `uninstall` restores every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._traces = 0
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
        span = Span(len(self.spans), name, parent,
                    parent.trace if parent else self._traces)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, ok: bool = True):
        span.end = perf_counter()
        span.ok = ok
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.covered += span.end - span.start

    def spanned(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, ok=False)
                raise
            self.close(span)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def leaf(self, layer: str, fn):
        """Count and time the outermost call into a leaf layer; calls it
        makes into itself run unwrapped."""
        def wrapper(*args, **kwargs):
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - started
                self._in_leaf = False
                span = self._stack[-1]
                agg = span.leaves.get(layer)
                if agg is None:
                    agg = span.leaves[layer] = [0, 0.0]
                agg[0] += 1
                agg[1] += took
                span.covered += took
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        raw = vars(owner)[attr]
        self._patches.append((owner, attr, raw))
        new = make(getattr(owner, attr))
        setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)

    def install(self):
        """Wrap each layer's public functions in the module that calls them."""
        engine, mutation, harness = btfuzz.engine, btfuzz.mutation, btfuzz.harness
        seed_len = lambda result: self.counts.update(seed_bytes=len(result.seed))
        # the benchmark's own calls, then the mutators' calls
        for owner, names in ((engine, ("generate_random", "generate_from_seed", "parse")),
                             (mutation, ("generate_from_seed", "parse", "run_with_splice"))):
            for name in names:
                self._patch(owner, name,
                            lambda fn, n=name: self.spanned(f"engine.{n}", fn, seed_len))
        for op in MUTATION_OPS:
            self._patch(mutation, f"smart_{op}",
                        lambda fn, op=op: self.spanned(f"mutation.{op}", fn))
        self._patch(mutation, "index_corpus",
                    lambda fn: self.spanned("mutation.index_corpus", fn))
        self._patch(mutation, "random_smart_mutation",
                    lambda fn: self.spanned("mutation.random", fn))

        def crash_reparse(fn):
            inner = self.spanned("engine.parse", fn, seed_len)
            def wrapper(*args, **kwargs):
                self.counts["crash_reparse"] += 1
                return inner(*args, **kwargs)
            return wrapper
        self._patch(harness, "parse", crash_reparse)
        self._patch(harness, "run_target",
                    lambda fn: self.spanned("harness.run_target", fn))
        self._patch(harness, "random_smart_mutation",
                    lambda fn: self.spanned("mutation.random", fn))
        self._patch(harness, "index_corpus",
                    lambda fn: self.spanned("mutation.index_corpus", fn))
        self._patch(btfuzz.cli, "main", lambda fn: self.spanned("harness.loop", fn))

        stream = btfuzz.decisionstream.DecisionStream
        for name in DECISION_OPS:
            self._patch(stream, name, lambda fn: self.leaf("decisionstream", fn))
        buffer = btfuzz.runtime.FileBuffer

        def counted_write(fn):
            inner = self.leaf("runtime", fn)
            def write(buf, payload):
                self.counts["write_bytes"] += len(payload)
                return inner(buf, payload)
            return write
        for name in BUFFER_OPS:
            self._patch(buffer, name, counted_write if name == "write"
                        else lambda fn: self.leaf("runtime", fn))
        codec = btfuzz.formats.zstream.StoredZlibCodec
        for name in ("encode", "decode"):
            self._patch(codec, name, lambda fn: self.leaf("formats.codec", fn))
        self._patch(btfuzz.formats, "verify", lambda fn: self.spanned("formats.verify", fn))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed by metric name."""
        m: Counter = Counter()
        for span in self.spans:
            layer = span.name.split(".")[0]
            for leaf, (calls, secs) in span.leaves.items():
                m[f"{leaf}.calls"] += calls
                m[f"{leaf}.self_s"] += secs
            if layer == "engine":
                m["engine.calls"] += 1
                m["engine.self_s"] += span.self_s
            elif span.name == "mutation.index_corpus":
                m["mutation.index_corpus_s"] += span.end - span.start
            elif layer == "mutation" and span.name != "mutation.random":
                m[f"{span.name}.attempts"] += 1
                m[f"{span.name}.accepts"] += span.ok
                m[f"{span.name}.self_s"] += span.self_s
            elif span.name == "harness.run_target":
                m["harness.run_target.calls"] += 1
                m["harness.run_target.busy_s"] += span.end - span.start
            elif span.name == "harness.loop":
                m["harness.loop.self_s"] += span.self_s
            elif span.name == "formats.verify":
                m["formats.verify.self_s"] += span.self_s
        out = {
            "decisionstream.calls": m["decisionstream.calls"],
            "decisionstream.seed_bytes": self.counts["seed_bytes"],
            "decisionstream.self_s": m["decisionstream.self_s"],
            "runtime.filebuffer.calls": m["runtime.calls"],
            "runtime.write_bytes": self.counts["write_bytes"],
            "runtime.self_s": m["runtime.self_s"],
            "engine.calls": m["engine.calls"],
            "engine.self_s": m["engine.self_s"],
            "formats.codec.calls": m["formats.codec.calls"],
            "formats.self_s": m["formats.codec.self_s"] + m["formats.verify.self_s"],
        }
        attempts = accepts = 0
        for op in MUTATION_OPS:
            for what in ("attempts", "accepts", "self_s"):
                out[f"mutation.{op}.{what}"] = m[f"mutation.{op}.{what}"]
            attempts += m[f"mutation.{op}.attempts"]
            accepts += m[f"mutation.{op}.accepts"]
        out["mutation.accept_ratio"] = accepts / attempts if attempts else 0.0
        out["mutation.index_corpus_s"] = m["mutation.index_corpus_s"]
        out["harness.run_target.calls"] = m["harness.run_target.calls"]
        out["harness.run_target.busy_s"] = m["harness.run_target.busy_s"]
        out["harness.crash_reparse.calls"] = self.counts["crash_reparse"]
        out["harness.loop.self_s"] = m["harness.loop.self_s"]
        return out
