"""Span tracer that wraps the program's public entry points from outside.

:class:`Tracer` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that records a span (name, start, end, parent, op id) and puts
the original back on :meth:`Tracer.restore`.  It is installed before
any system is built, so bound methods an engine hoists into locals, or
closures built at controller construction, already hold the wrappers.

Spans stay in per-thread in-memory buffers until the run ends, when
they are written out once (:meth:`Tracer.write`).  An entry point that
no longer exists (a rename in the program) is reported as absent with a
warning; the untraced run never imports this module's wrappers at all.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable

from pbench.stats import Span

_clock = time.perf_counter


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module.owner.attr`` (owner None = module
    attribute).  ``kind="iter"`` also times every ``next()`` on the
    block trace the call returns."""

    layer: str
    span: str
    module: str
    owner: str | None
    attr: str
    kind: str = "call"


def _methods(layer, span, module, owner, *attrs, kind="call"):
    return [EntryPoint(layer, span, module, owner, a, kind) for a in attrs]


#: Layer -> span name -> the program's entry points that feed it.
ENTRY_POINTS: list[EntryPoint] = [
    *_methods("core.system", "system.build", "repro.core.system",
              "EasyDRAMSystem", "__init__", "session"),
    *_methods("core.system", "system.finish", "repro.core.system",
              "Session", "finish"),
    *_methods("workloads", "trace.gen", "repro.workloads.microbench", None,
              "touch_blocks", "cpu_copy_blocks", "cpu_init_blocks",
              kind="iter"),
    *_methods("workloads", "trace.gen", "repro.workloads.lmbench", None,
              "pointer_chase_blocks", kind="iter"),
    *_methods("workloads", "trace.gen", "repro.workloads.polybench", None,
              "trace_blocks", kind="iter"),
    *_methods("workloads", "trace.gen", "repro.core.workload_mix",
              "WorkloadMix", "build", kind="iter"),
    *_methods("workloads", "trace.gen", "repro.core.techniques.rowclone",
              None, "cpu_copy_blocks", "cpu_init_blocks", kind="iter"),
    *_methods("core.engine", "engine", "repro.core.engine", "EventEngine",
              "run_trace", "run_cores"),
    *_methods("cpu.cache", "cache", "repro.cpu.cache", "CacheHierarchy",
              "access", "access_block"),
    *_methods("core.smc", "smc.serve", "repro.core.smc",
              "SoftwareMemoryController", "service_pending",
              "service_pending_batched"),
    *_methods("core.smc", "smc.episode", "repro.core.smc",
              "SoftwareMemoryController", "technique_episode"),
    *_methods("dram.kernel", "kernel", "repro.core.smc",
              "SoftwareMemoryController", "service_pending_kernel"),
    *_methods("dram.kernel", "kernel", "repro.dram.kernel.blockrun", None,
              "run_gated_kernel"),
    *_methods("dram.device", "device", "repro.dram.device", "DramDevice",
              "issue", "issue_discard", "issue_fast", "issue_col",
              "issue_plan"),
    *_methods("core.techniques", "technique", "repro.core.techniques.rowclone",
              "RowCloneTechnique", "plan_copy", "plan_init", "execute_copy",
              "execute_init"),
    *_methods("bender", "bender", "repro.bender.engine", "BenderEngine",
              "execute"),
    *_methods("serve.server", "server", "repro.serve.server",
              "ServiceServer", "finish_request"),
    *_methods("serve.jobs", "jobs.submit", "repro.serve.jobs", "JobQueue",
              "submit"),
    *_methods("serve.jobs", "jobs.fingerprint", "repro.serve.jobs", None,
              "job_fingerprint"),
    *_methods("serve.store", "store.get", "repro.serve.store", "ResultStore",
              "get"),
    *_methods("serve.store", "store.put", "repro.serve.store", "ResultStore",
              "put"),
    *_methods("serve.store", "store.query", "repro.serve.store",
              "ResultStore", "query"),
    *_methods("serve.store", "store.payload", "repro.serve.store",
              "ResultStore", "get_job_payload"),
    *_methods("serve.store", "store.record", "repro.serve.store",
              "ResultStore", "record_job"),
    *_methods("runner", "runner.sweep", "repro.serve.jobs", None,
              "run_sweep"),
]


class _Buffer:
    """One thread's spans as parallel arrays (ids are indices)."""

    __slots__ = ("name", "start", "end", "parent", "op", "stack", "cur_op")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.cur_op = -1


class _TimedBlocks:
    """Iterator proxy timing each ``next()`` as a span."""

    __slots__ = ("_it", "_tracer", "_name")

    def __init__(self, it, tracer: "Tracer", name: int) -> None:
        self._it = it
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        buf, idx = self._tracer._enter(self._name)
        try:
            return next(self._it)
        finally:
            self._tracer._exit(buf, idx)


class Tracer:
    """Collects spans from wrapped entry points, thread by thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self.absent: list[str] = []
        #: Hooks keyed by span name, called after each call as
        #: ``observer(result, args, entered)``; ``entered`` is what the
        #: span's :attr:`on_enter` hook returned before the call (or None).
        self.observers: dict[str, Callable] = {}
        self.on_enter: dict[str, Callable] = {}

    # -- recording ----------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_op(self, op: int) -> None:
        """Tag this thread's following spans with op id ``op``."""
        self._buffer().cur_op = op

    def _enter(self, name: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.name)
        buf.name.append(name)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.op.append(buf.cur_op)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(_clock())
        return buf, idx

    def _exit(self, buf: _Buffer, idx: int) -> None:
        buf.end[idx] = _clock()
        buf.stack.pop()

    def wrap(self, fn: Callable, span: str, kind: str = "call") -> Callable:
        """``fn`` with a span around every call."""
        name = self.name_id(span)
        enter, leave = self._enter, self._exit
        observers, on_enter = self.observers, self.on_enter

        def traced(*args, **kwargs):
            pre = on_enter.get(span)
            entered = pre(args) if pre is not None else None
            buf, idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(buf, idx)
            observer = observers.get(span)
            if observer is not None:
                observer(result, args, entered)
            if kind == "iter":
                from repro.cpu.blocks import BlockTrace
                return BlockTrace(_TimedBlocks(iter(result), self, name))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    # -- installation -------------------------------------------------

    def install(self, entries: list[EntryPoint] = ENTRY_POINTS) -> None:
        """Wrap every entry point; missing ones are recorded as absent."""
        for entry in entries:
            owner = f"{entry.owner}." if entry.owner else ""
            where = f"{entry.module}.{owner}{entry.attr}"
            try:
                holder = importlib.import_module(entry.module)
                if entry.owner is not None:
                    holder = getattr(holder, entry.owner)
                original = getattr(holder, entry.attr)
            except (ImportError, AttributeError):
                self.absent.append(where)
                print(f"perfbench: warning: entry point {where} not found;"
                      f" layer {entry.layer} ({entry.span}) reported absent",
                      file=sys.stderr)
                continue
            own = entry.owner is None or entry.attr in vars(holder)
            setattr(holder, entry.attr,
                    self.wrap(original, entry.span, entry.kind))
            self._patches.append((holder, entry.attr, original, own))

    def restore(self) -> None:
        """Put every original back (inherited attributes are deleted)."""
        for holder, attr, original, own in reversed(self._patches):
            if own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        self._patches.clear()

    # -- reading ------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(b.name) for b in self._buffers)

    def spans(self) -> list[Span]:
        """Every span as :class:`Span` (ids unique across threads)."""
        out = []
        offset = 0
        for buf in self._buffers:
            for i in range(len(buf.name)):
                parent = buf.parent[i]
                out.append(Span(offset + i, self.names[buf.name[i]],
                                buf.start[i], buf.end[i],
                                offset + parent if parent >= 0 else -1,
                                buf.op[i]))
            offset += len(buf.name)
        return out

    def write(self, path: str) -> None:
        """Every span as one tab-separated line: id, name, start, end,
        parent id (-1 for none) and op id."""
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            for span in self.spans():
                out.write(f"{span.id}\t{span.name}\t{span.start:.9f}\t"
                          f"{span.end:.9f}\t{span.parent}\t{span.op}\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time, and self time.

        Spans of one thread nest strictly (a child starts and ends
        inside its parent, and siblings run one after another), so the
        time a span's children cover is the sum of their durations —
        the same answer as :func:`pbench.stats.self_times`' interval
        union, in one pass over millions of spans.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0.0] * n_names
        own = [0.0] * n_names
        for buf in self._buffers:
            names, starts, ends, parents = buf.name, buf.start, buf.end, \
                buf.parent
            n = len(names)
            child = [0.0] * n
            # Children have larger indices than their parents: walk
            # backwards so a span's child time is complete when read.
            for i in range(n - 1, -1, -1):
                dur = ends[i] - starts[i]
                k = names[i]
                calls[k] += 1
                incl[k] += dur
                own[k] += dur - child[i]
                p = parents[i]
                if p >= 0:
                    child[p] += dur
        return {self.names[k]: {"calls": calls[k], "incl_s": incl[k],
                                "self_s": own[k]}
                for k in range(n_names) if calls[k]}
