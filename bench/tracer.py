"""Outside-in tracer: spans around the public functions of each ucqrewrite module.

Nothing under ``src/`` knows about it.  ``install`` replaces every
``ucqrewrite.*`` module attribute that *is* a traced function object with a
timing wrapper (except the bindings in ``UNWRAPPED``), so a call is caught
whichever namespace it is resolved in.
Each namespace gets its own span name (``chase.find_homomorphism`` is not
``homomorphism.find_homomorphism``).  Generators are timed one ``next()`` at a
time.  Spans are aggregated in memory by name; a span's self time is its
duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import inspect
import time
from typing import Callable

# defining module -> traced public functions
TRACED = {
    "rewriting": ("rewrite", "beta"),
    "homomorphism": ("cover", "more_general", "core", "find_homomorphism", "homomorphisms"),
    "unification": ("single_piece_unifiers", "enumerate_aggregated"),
    "partition": ("join",),
    "kb": ("freshen_rule", "canonicalize"),
    "dlgp": ("parse_document", "query_to_dlgp"),
    "chase": ("entails",),
}

# find_homomorphism only takes the first item of this generator; a span here would
# move all of its search time out of find_homomorphism's self time.
UNWRAPPED = {("homomorphism", "homomorphisms")}


class Tracer:
    """In-memory span aggregation: per name, calls, yields, seconds and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child seconds]
        self.spans: dict[str, dict] = {}
        self.decided: set = set()  # more_general pairs decided in the current rewrite

    def record(self, name: str) -> dict:
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = {"calls": 0, "yields": 0, "total_s": 0.0,
                                      "self_s": 0.0, "parents": {}}
        return rec

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        rec = self.record(name)
        rec["total_s"] += dur
        rec["self_s"] += dur - child
        parent = self.stack[-1][0] if self.stack else None
        rec["parents"][parent] = rec["parents"].get(parent, 0) + 1
        if self.stack:
            self.stack[-1][2] += dur

    def untimed(self, fn, *args) -> None:
        """Run bookkeeping outside every span: it is charged to no layer."""
        t = self.clock()
        fn(*args)
        if self.stack:
            self.stack[-1][2] += self.clock() - t


def _bump(rec: dict, key: str, by=1) -> None:
    rec[key] = rec.get(key, 0) + by


def _preds(q) -> frozenset:
    return frozenset(a.predicate for a in q.atoms)


def _observe_more_general(tr, rec, args, kwargs, result):
    q1, q2 = args
    _bump(rec, "true", bool(result))
    _bump(rec, "pred_reject", not _preds(q1) <= _preds(q2))
    pair = (q1, q2)
    _bump(rec, "repeat", pair in tr.decided)
    tr.decided.add(pair)


def _observe_rewrite(tr, rec, args, kwargs, result):
    tr.decided.clear()
    _bump(rec, "generated", result.generated_count)
    _bump(rec, "explored", result.explored_count)
    _bump(rec, "output", len(result.cover))
    _bump(rec, "levels", result.depth_reached)


def _observe_cover(tr, rec, args, kwargs, result):
    explored, fresh = args + tuple(kwargs[k] for k in ("explored", "fresh") if k in kwargs)
    items = set(explored) | set(fresh)
    _bump(rec, "in_size", len(items))
    _bump(rec, "kept", len(result))


OBSERVERS = {
    "more_general": _observe_more_general,
    "rewrite": _observe_rewrite,
    "cover": _observe_cover,
    "single_piece_unifiers": lambda tr, rec, a, k, r: _bump(rec, "empty", not r),
    "enumerate_aggregated": lambda tr, rec, a, k, r: _bump(rec, "empty", not r),
    "core": lambda tr, rec, a, k, r: _bump(rec, "atoms_removed", len(a[0].atoms) - len(r.atoms)),
    "find_homomorphism": lambda tr, rec, a, k, r: _bump(rec, "found", r is not None),
    "entails": lambda tr, rec, a, k, r: _bump(rec, r.value.replace("_at_bound", "")),
}


def _wrap(tracer: Tracer, name: str, func: Callable) -> Callable:
    observe = OBSERVERS.get(func.__name__)

    if inspect.isgeneratorfunction(func):
        def wrapper(*args, **kwargs):
            rec = tracer.record(name)
            rec["calls"] += 1
            it = func(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    rec["yields"] += 1
                    yield item
            finally:
                it.close()
    else:
        def wrapper(*args, **kwargs):
            rec = tracer.record(name)
            rec["calls"] += 1
            tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                tracer.untimed(observe, tracer, rec, args, kwargs, result)
            return result

    wrapper.__wrapped__ = func
    return wrapper


def install(tracer: Tracer, modules: dict) -> Callable[[], None]:
    """Wrap every binding of each traced function; return the restore callable.

    ``modules`` maps short names (``kb``, ``chase``, ...) to the imported
    ``ucqrewrite.*`` modules.
    """
    saved = []
    for home, names in TRACED.items():
        for fname in names:
            original = getattr(modules[home], fname)
            for ns, mod in modules.items():
                if getattr(mod, fname, None) is original and (ns, fname) not in UNWRAPPED:
                    saved.append((mod, fname, original))
                    setattr(mod, fname, _wrap(tracer, f"{ns}.{fname}", original))

    def restore() -> None:
        for mod, fname, original in saved:
            setattr(mod, fname, original)

    return restore


def _home(fname: str) -> str:
    return next(home for home, names in TRACED.items() if fname in names)


def metric_key(span_name: str) -> str:
    """Per-layer metric prefix of a span.

    A call made from chase code is chase work; any other call belongs to the
    module that defines the function, whichever namespace resolved it.
    """
    ns, fname = span_name.split(".")
    return f"chase.{fname}" if ns == "chase" else f"{_home(fname)}.{fname}"


def layers(tracer: Tracer) -> dict[str, dict]:
    """Span records summed over namespaces into per-layer records."""
    out: dict[str, dict] = {}
    for name, rec in tracer.spans.items():
        acc = out.setdefault(metric_key(name), {})
        for k, v in rec.items():
            if k != "parents":
                acc[k] = acc.get(k, 0) + v
    return out
