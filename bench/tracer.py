"""Outside-in tracing: wrappers installed on the names each module calls.

No code in ``src/`` knows about these spans.  A wrapper replaces a module
attribute (``residual.a_ell``, ``curves.count_points_bsgs`` ...) for the
duration of a traced pass, so the call sites in the package pick it up
through their module globals.  Generators are timed only inside ``next()``
and ``close()``, never while the consumer holds an item.

Spans are kept in memory as flat int64 records
``(id, name, start_ns, end_ns, parent_id)`` and written out when the
benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path


class _Patches:
    """Module attributes swapped for wrappers, and put back by ``restore``."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def _swap(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


class Tracer(_Patches):
    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self.spans = array("q")
        self.items: dict[int, int] = defaultdict(int)  # generator items yielded, by name id
        self._ids = itertools.count()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def patch(self, module, attr: str, name: str, *, generator: bool = False) -> None:
        nid = self._name_id(name)
        wrap = self._wrap_generator if generator else self._wrap_call
        self._swap(module, attr, lambda original: wrap(original, nid))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (the root of one invocation)."""
        return self._wrap_call(fn, self._name_id(name))(*args, **kwargs)

    def _wrap_call(self, fn, nid: int):
        ids, stack, spans, clock = self._ids, self._stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, nid, t0, t1, parent))

        return traced

    def _wrap_generator(self, fn, nid: int):
        def traced(*args, **kwargs):
            return self._segments(fn(*args, **kwargs), nid)

        return traced

    def _segments(self, inner, nid: int):
        ids, stack, spans, clock = self._ids, self._stack, self.spans, time.perf_counter_ns
        count = 0
        try:
            while True:
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.extend((sid, nid, t0, t1, parent))
                count += 1
                yield item
        finally:
            # an abandoned pool-backed sweep waits for its workers here
            sid = next(ids)
            t0 = clock()
            inner.close()
            spans.extend((sid, nid, t0, clock(), stack[-1]))
            self.items[nid] += count

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls (spans), total_s, self_s (minus child spans), items."""
        recs = self.spans
        child_ns: dict[int, int] = defaultdict(int)
        for i in range(0, len(recs), 5):
            child_ns[recs[i + 4]] += recs[i + 3] - recs[i + 2]
        out = {n: {"spans": 0, "total_s": 0.0, "self_s": 0.0, "items": 0} for n in self.names}
        for i in range(0, len(recs), 5):
            sid, nid, t0, t1 = recs[i], recs[i + 1], recs[i + 2], recs[i + 3]
            row = out[self.names[nid]]
            row["spans"] += 1
            row["total_s"] += (t1 - t0) / 1e9
            row["self_s"] += (t1 - t0 - child_ns.get(sid, 0)) / 1e9
        for nid, n in self.items.items():
            out[self.names[nid]]["items"] = n
        return out

    def write(self, stem: Path) -> None:
        """Write ``<stem>.spans`` (raw int64 records) and ``<stem>.json`` (names, layout)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
        stem.with_suffix(".json").write_text(json.dumps({
            "record": ["id", "name", "start_ns", "end_ns", "parent_id"],
            "dtype": "int64, native byte order",
            "names": self.names,
            "spans": len(self.spans) // 5,
        }, indent=1) + "\n")


class SweepProbe(_Patches):
    """Light timing of the sweep entry points only, for the untraced passes.

    Records each ``classify_range`` call (its workers argument, context and
    range, time inside ``next()``/``close()``, time to its first item) and
    the total time of ``plan_target_lambda``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sweeps: list[dict] = []
        self.plan_s = 0.0

    def install(self, cli, density, levels) -> None:
        for module in (cli, density, levels):
            self._swap(module, "classify_range", self._sweep)
        self._swap(cli, "plan_target_lambda", self._plan)

    def _plan(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.plan_s += time.perf_counter() - t0

        return timed

    def _sweep(self, fn):
        def timed(ctx, prime_range, **kwargs):
            rec = {"workers": kwargs.get("workers"), "ctx": ctx, "range": prime_range,
                   "chunk_size": kwargs.get("chunk_size", 4096), "busy_s": 0.0,
                   "first_item_s": None}
            self.sweeps.append(rec)
            return self._consume(fn(ctx, prime_range, **kwargs), rec)

        return timed

    @staticmethod
    def _consume(inner, rec):
        clock = time.perf_counter
        try:
            while True:
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec["busy_s"] += clock() - t0
                if rec["first_item_s"] is None:
                    rec["first_item_s"] = rec["busy_s"]
                yield item
        finally:
            t0 = clock()
            inner.close()
            rec["busy_s"] += clock() - t0
