"""Span tracing installed from outside `padic_cf`.

`Tracer.install` replaces the package's public functions and the primitives
named in the ROADMAP with wrappers that record one span per call: a name (the
layer), start, end and the span that caused it.  Nothing under `src/` is
edited; every module-level alias of a function is patched, so calls through
`from .x import f` bindings are seen too.  Spans are kept in per-thread arrays
in memory, turned into per-layer counts and self times by `layer_stats`, and
written out by `write`.
"""

from __future__ import annotations

import array
import functools
import gzip
import itertools
import json
import threading
import time
import types

SHARD = "ergodics.shard"


def _add(counts: dict, key: str, n) -> None:
    counts[key] = counts.get(key, 0) + n


class _Buffer:
    """Spans finished on one thread; only that thread appends to it."""

    __slots__ = ("stack", "root", "sid", "parent", "layer", "start", "end", "counts")

    def __init__(self):
        self.stack: list[int] = []
        self.root = 0  # parent for spans opened on an empty stack (pool workers)
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.layer = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts: dict = {}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _layer(self, name: str) -> int:
        if name not in self._layer_index:
            self._layer_index[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_index[name]

    def wrap(self, fn, layer: str, count=None):
        """`fn` with a span named `layer` around every call.

        `count(counts, args, result)` may add counters after a normal return;
        an exception adds one to `<layer>.raised.<ExceptionName>`.
        """
        idx = self._layer(layer)
        ids = self._ids
        buffer = self._buffer
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1] if stack else buf.root
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _add(buf.counts, f"{layer}.raised.{type(exc).__name__}", 1)
                raise
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.layer.append(idx)
                buf.start.append(t0)
                buf.end.append(t1)
            if count is not None:
                count(buf.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg) -> None:
        """Wrap the public functions of every `padic_cf` module and the primitives."""
        core, lft, cfs, erg = pkg.padic_core, pkg.lft, pkg.cfsystems, pkg.ergodics
        cli = getattr(pkg, "cli", None)
        modules = [m for m in (pkg, core, lft, cfs, erg, cli) if m is not None]

        def function(module, name, layer, count=None):
            orig = getattr(module, name)
            traced = self.wrap(orig, layer, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, traced)

        def method(cls, name, layer):
            self._set(cls, name, self.wrap(cls.__dict__[name], layer))

        method(core.PadicApprox, "inverse", "padic_core.inverse")
        method(core.PadicApprox, "_split_at_one", "padic_core.split")
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__neg__", "__truediv__", "__rtruediv__"):
            method(core.PadicApprox, name, "padic_core.arith")
        function(core, "haar_sample", "padic_core.sample")
        function(core, "haar_sample_vector", "padic_core.sample")
        method(core.Ball, "contains", "padic_core.contains")
        method(core.ProductCylinder, "contains", "padic_core.contains")

        function(cfs, "step", "cfsystems.step")
        function(cfs, "enumerate_branches", "cfsystems.enumerate",
                 lambda c, a, r: _add(c, "cfsystems.enumerate.branches", len(r)))
        function(cfs, "branch_lft", "cfsystems.branch_lft")
        function(cfs, "convergent", "cfsystems.convergent")

        function(lft, "certify_hyperbolic", "lft.certify")
        function(lft, "iota", "lft.iota")
        function(lft, "apply_inverse", "lft.apply_inverse")
        function(lft, "preimage_cylinder", "lft.preimage",
                 lambda c, a, r: _add(c, "lft.preimage.pieces", len(r)))

        def invariance_count(counts, args, result):
            _add(counts, "ergodics.invariance.requested", args[2])
            _add(counts, "ergodics.invariance.done", result.n_samples)

        function(erg, "digit_mean_reports", "ergodics.digit_means")
        function(erg, "invariance_mc", "ergodics.invariance", invariance_count)
        function(erg, "iota_sum", "ergodics.iota_sum")
        self._set(erg, "_run_sharded", self._traced_run_sharded(erg._run_sharded))

        if cli is not None:
            self._set(cli, "json", types.SimpleNamespace(
                loads=self.wrap(json.loads, "cli.parse"),
                dumps=self.wrap(json.dumps, "cli.format"),
                JSONDecodeError=json.JSONDecodeError,
            ))
            build_parser = self.wrap(cli.build_parser, "cli.parse")

            def traced_build_parser():
                parser = build_parser()
                parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
                return parser

            self._set(cli, "build_parser", traced_build_parser)
            function(cli, "_parse_point", "cli.parse")
            function(cfs, "digit_from_obj", "cli.parse")
            function(cfs, "digit_to_obj", "cli.format")
            self._set(cli, "format_rational", self.wrap(cli.format_rational, "cli.format"))
            self._set(cli, "_emit", self.wrap(
                cli._emit, "cli.format",
                lambda c, a, r: _add(c, "cli.out_bytes", len(a[0].encode()) + 1),
            ))

    def _traced_run_sharded(self, orig):
        """Wrap the shard worker handed to `_run_sharded`; pool threads get the
        calling span as their parent.  Workers are charged the CPU time of
        their thread: under the interpreter lock a worker waiting for its turn
        is not busy, though its span keeps running.  The pool's wall time is
        counted around the whole `_run_sharded` call."""

        @functools.wraps(orig)
        def run_sharded(worker, *args, **kwargs):
            buf = self._buffer()
            parent = buf.stack[-1] if buf.stack else buf.root
            traced_worker = self.wrap(worker, SHARD)

            def shard(job):
                own = self._buffer()
                saved = own.root
                own.root = parent
                cpu = time.thread_time_ns()
                try:
                    return traced_worker(job)
                finally:
                    own.root = saved
                    _add(own.counts, "ergodics.pool.busy_cpu_ns", time.thread_time_ns() - cpu)

            t0 = time.perf_counter_ns()
            try:
                return orig(shard, *args, **kwargs)
            finally:
                _add(buf.counts, "ergodics.pool.wall_ns", time.perf_counter_ns() - t0)

        return run_sharded

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def _spans(self):
        for t, buf in enumerate(self._buffers):
            yield from zip(buf.sid, buf.parent, buf.layer, itertools.repeat(t), buf.start, buf.end)

    def counts(self) -> dict:
        out: dict = {}
        for buf in self._buffers:
            for key, n in buf.counts.items():
                _add(out, key, n)
        return out

    def layer_stats(self) -> dict:
        """Per (layer, parent layer): span count and summed self time (ns).

        Self time is a span's duration minus the part of its interval covered
        by child spans.  Children on the span's own thread nest, so their
        durations add; children on other threads (pool shards) may overlap, so
        their intervals are merged first.
        """
        n = max((max(buf.sid, default=0) for buf in self._buffers), default=0) + 1
        layer_of = array.array("i", [-1]) * n
        thread_of = array.array("i", [0]) * n
        for sid, _, layer, thread, _, _ in self._spans():
            layer_of[sid] = layer
            thread_of[sid] = thread
        child_ns = array.array("q", [0]) * n
        foreign: dict[int, list] = {}
        for sid, parent, _, thread, t0, t1 in self._spans():
            if not parent:
                continue
            if thread_of[parent] == thread:
                child_ns[parent] += t1 - t0
            else:
                foreign.setdefault(parent, []).append((t0, t1))
        stats: dict = {}
        for sid, parent, layer, _, t0, t1 in self._spans():
            self_ns = t1 - t0 - child_ns[sid]
            if sid in foreign:
                self_ns -= _covered(foreign[sid], t0, t1)
            key = (self.layers[layer], self.layers[layer_of[parent]] if parent else None)
            entry = stats.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += self_ns
        return stats

    def write(self, path) -> int:
        """Write every span as JSON lines (gzip); returns the span count."""
        count = 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({
                "layers": self.layers,
                "fields": ["sid", "parent", "layer", "thread", "start_ns", "end_ns"],
                "counts": self.counts(),
            }) + "\n")
            for sid, parent, layer, thread, t0, t1 in self._spans():
                fh.write(f"[{sid},{parent},{layer},{thread},{t0},{t1}]\n")
                count += 1
        return count


def _covered(intervals: list, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
