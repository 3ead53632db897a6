"""Layer spans recorded from outside the program.

Tracing wraps the public functions at each module boundary of ranklab
(fields, codes, rankmetric, listdec, harness, codefile).  The wrapper
replaces the function wherever a ranklab module holds it, including
names copied by ``from .x import f``, so calls from one layer into the
next are spanned as well.  Spans and counters live in memory and are
written out with the run's result file.  Nothing is wrapped unless a
traced run asks for it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.active = False
        self.job: str | None = None
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter() - self._t0, "end": None,
                           "parent": parent, "job": self.job})
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self.spans[idx]["end"] is None:  # abandon() may have closed it already
            self.spans[idx]["end"] = time.perf_counter() - self._t0
        if idx in self._stack:
            while self._stack.pop() != idx:
                pass

    def abandon(self) -> None:
        """Close whatever a failed job left open, innermost first."""
        now = time.perf_counter() - self._t0
        while self._stack:
            self.spans[self._stack.pop()]["end"] = now

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> Counter:
        """Span name -> summed self time: duration minus the time children cover."""
        spans = self.spans
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = Counter()
        for i, s in enumerate(spans):
            out[s["name"]] += (s["end"] - s["start"]) - child[i]
        return out


def _wrap_call(tracer, fn, name, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(name(args, kwargs) if callable(name) else name):
            result = fn(*args, **kwargs)
        if count:
            count(tracer.counts, args, result)
        return result

    return wrapper


def _wrap_cached_build(tracer, fn):
    """default_context is cached: only a cache miss builds a context."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        before = fn.cache_info().misses
        with tracer.span("fields.build"):
            result = fn(*args, **kwargs)
        tracer.counts["fields.builds"] += fn.cache_info().misses - before
        return result

    return wrapper


def _wrap_gen(tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            yield from fn(*args, **kwargs)
            return
        n = 0
        with tracer.span(name):
            for item in fn(*args, **kwargs):
                n += 1
                yield item
        tracer.counts[counter] += n

    return wrapper


def _mode(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")
    return "listdec.sweep" if mode == "exhaustive" else "listdec.mc"


def _count_list(counts, args, report):
    if report.exhaustive:
        counts["listdec.sweep_centers"] += report.centers_tried
        # computed from sizes, not counted by the program
        counts["listdec.sweep_pairs"] += report.centers_tried * args[0].size
    else:
        counts["listdec.mc_centers"] += report.centers_tried


def _count_builds(counts, args, result):
    counts["fields.builds"] += 1


def _count_cosets(counts, args, report):
    counts["harness.cosets"] += report.coset_count


def _count_trials(counts, args, report):
    counts["harness.trials"] += len(report.outcomes)


def install(tracer: Tracer, R) -> list[tuple]:
    """Wrap the layer boundaries of the imported ranklab package ``R``.

    Returns what ``uninstall`` needs to put the originals back.  A
    boundary the package no longer has is skipped, so the trace keeps
    working when internals move; its metrics then read zero.
    """
    fields, codes, rankmetric = R.fields, R.codes, R.rankmetric
    listdec, harness, codefile = R.listdec, R.harness, R.codefile
    plan = []

    def call(mod, attr, name, count=None):
        fn = getattr(mod, attr, None)
        if fn is not None:
            plan.append((fn, _wrap_call(tracer, fn, name, count)))

    def gen(mod, attr, name, counter):
        fn = getattr(mod, attr, None)
        if fn is not None:
            plan.append((fn, _wrap_gen(tracer, fn, name, counter)))

    if hasattr(fields, "default_context"):
        plan.append((fields.default_context, _wrap_cached_build(tracer, fields.default_context)))
    call(fields, "context_from_descriptor", "fields.build", _count_builds)
    call(codes, "sample_random_code", "codes.sample")
    call(codes, "sample_random_linear_code", "codes.sample")
    call(codes, "gabidulin", "codes.sample")
    gen(codes, "enumerate_codewords", "codes.enumerate", "codes.words")
    gen(rankmetric, "enumerate_ball", "rankmetric.ball", "rankmetric.ball_vectors")
    call(rankmetric, "ball_volume", "rankmetric.volume")
    call(listdec, "max_list_size", _mode, _count_list)
    call(harness, "coset_partition_check", "harness.coset", _count_cosets)
    call(harness, "run_ensemble", "harness.ensemble", _count_trials)
    for attr in ("load_code", "loads_code"):
        call(codefile, attr, "codefile.load")
    for attr in ("dump_code", "dumps_code"):
        call(codefile, attr, "codefile.dump")

    swapped = []
    originals = {id(fn): wrapped for fn, wrapped in plan}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ranklab" or mod_name.startswith("ranklab.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None:
                setattr(mod, attr, wrapped)
                swapped.append((mod, attr, value))
    return swapped


def uninstall(swapped: list[tuple]) -> None:
    for mod, attr, value in swapped:
        setattr(mod, attr, value)
