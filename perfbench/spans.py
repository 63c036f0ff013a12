"""Spans around the public functions of asym, recorded from outside the program.

`Tracer.install` replaces each traced function under every name through
which callers reach it: the defining module, every asym module that imported
it, and the package namespace. `uninstall` puts the originals back, so the
untraced rounds run the program exactly as shipped. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# span name -> (module, function names); io loaders share the one span "io.load"
TRACED = {
    "groups.build_group": ("groups", ["build_group"]),
    "groups.validate_projective_rep": ("groups", ["validate_projective_rep"]),
    "io.load": ("io", ["load_group", "load_rep", "load_state", "load_distribution", "load_generators"]),
    "cli.main": ("cli", ["main"]),
    "charfn.char_function": ("charfn", ["char_function"]),
    "charfn.char_power": ("charfn", ["char_power"]),
    "charfn.classify_sets": ("charfn", ["classify_sets"]),
    "exact_rate.exact_rate": ("exact_rate", ["exact_rate"]),
    "exact_rate.copies_bound": ("exact_rate", ["copies_bound"]),
    "convertibility.feasible_exact": ("convertibility", ["feasible_exact"]),
    "convertibility.minimal_copies_search": ("convertibility", ["minimal_copies_search"]),
    "convertibility.is_positive_definite": ("convertibility", ["is_positive_definite"]),
    "abelian.abelian_basis": ("abelian", ["abelian_basis"]),
    "abelian.charge_distribution": ("abelian", ["charge_distribution"]),
    "abelian.fourier_weights": ("abelian", ["fourier_weights"]),
    "approx.approx_rate_class": ("approx", ["approx_rate_class"]),
    "lie.qfim": ("lie", ["qfim"]),
    "lie.rf_ratio": ("lie", ["rf_ratio"]),
    "lie.converse_certificate": ("lie", ["converse_certificate"]),
    "lie.clt_diagnostic": ("lie", ["clt_diagnostic"]),
}

MEMORY_SPANS = {"groups.build_group"}  # tracemalloc peak inside the call
BYTE_COUNTS = {"io.load": "io.bytes_read", "cli.main": "cli.report_bytes"}


def _stdout_pos():
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "scope", "peak_b", "bytes")

    def __init__(self, index, name, parent, scope):
        self.index, self.name, self.parent, self.scope = index, name, parent, scope
        self.start = self.end = 0.0
        self.peak_b = self.bytes = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []  # in order of completion
        self.stack: list[Span] = []
        self.opened = 0
        self.scope = None  # (region, round, op) of the timed call in progress
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping
    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(tracer.opened, name, parent, tracer.scope)
            tracer.opened += 1
            tracer.stack.append(span)
            memory = name in MEMORY_SPANS and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            out_pos = _stdout_pos() if name == "cli.main" else 0
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.peak_b = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.stack.pop()
                tracer.spans.append(span)
            if name == "io.load":
                span.bytes = os.path.getsize(args[0])
            elif name == "cli.main":
                span.bytes = _stdout_pos() - out_pos  # report printed by the call
            return out

        return wrapper

    def install(self):
        modules = {k: v for k, v in sys.modules.items() if k == "asym" or k.startswith("asym.")}
        for name, (modname, fnames) in TRACED.items():
            home = modules["asym." + modname]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(name, original)
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------ output
    def dump(self, path, scales):
        """Write every span as JSON; `scales` maps a scope to its speed scale."""
        rows = [
            {"index": s.index, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent.index if s.parent else None, "scope": s.scope,
             "scale": scales.get(s.scope, 1.0), "peak_b": s.peak_b, "bytes": s.bytes}
            for s in sorted(self.spans, key=lambda s: s.index)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def layer_metrics(tracer, net, scales, traced_rounds):
    """Per-layer figures: the traced set-up plus the median traced round.

    A span's time is `net(start, end)`, its wall time less the speed
    sampler's, scaled like the end-to-end times by the speed scale of the
    timed call it ran in. Self time is that less its children's. Counts and
    bytes are plain sums.
    """
    duration = {s.index: net(s.start, s.end) for s in tracer.spans}
    children = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent.index] += duration[s.index]
    setup = defaultdict(float)
    per_round = {r: defaultdict(float) for r in traced_rounds}
    searches = oracle_in_search = 0
    peak = 0.0
    for s in tracer.spans:
        if s.scope is None or (s.scope[0] == "round" and s.scope[1] not in per_round):
            continue
        scale = scales.get(s.scope, 1.0)
        bucket = setup if s.scope[0] == "setup" else per_round[s.scope[1]]
        bucket[s.name + ".time_s"] += duration[s.index] * scale
        bucket[s.name + ".self_s"] += (duration[s.index] - children[s.index]) * scale
        bucket[s.name + ".calls"] += 1
        if s.name in BYTE_COUNTS:
            bucket[BYTE_COUNTS[s.name]] += s.bytes
        peak = max(peak, s.peak_b / 2**20)
        if s.name == "convertibility.minimal_copies_search":
            searches += 1
        elif s.name == "convertibility.is_positive_definite" and _inside(
                s, "convertibility.minimal_copies_search"):
            oracle_in_search += 1
    keys = set(setup).union(*(set(b) for b in per_round.values()))
    out = {k: setup[k] + statistics.median(per_round[r][k] for r in traced_rounds) for k in keys}
    out["convertibility.oracle_calls_per_search"] = oracle_in_search / searches if searches else 0.0
    out["groups.build_group.peak_mb"] = peak
    return out


def _inside(span, name):
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p is not None
