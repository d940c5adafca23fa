"""Spans around the calls into each layer of xmhopf, installed from outside the package.

`Tracer.install()` wraps the public functions of every xmhopf module and the
hot `Matrix` methods, and rebinds each wrapper in every `xmhopf.*` namespace
that binds the original (``cli`` and ``hopfmod``, for example, import
functions by name), so a call is seen whichever module makes it.
`uninstall()` puts every original back.

Spans nest: a span's self time is its duration minus the durations of the
spans it directly contains.  Spans are aggregated as they close, per name:
calls, total time and self time, plus the work counters below.  Counting
runs outside the timed spans and is charged to `trace.counting`.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

MODULES = ("linalg", "groups", "crossed", "hopf", "xihopf", "repcat", "hopfmod", "docio", "cli")

# Matrix methods traced under their layer names.
_MATRIX = {"__matmul__": "linalg.matmul", "kron": "linalg.kron", "apply": "linalg.apply",
           "_rref": "linalg.rref", "flip": "linalg.flip"}


def _matmul_counts(counts, args):
    a, b = args[0], args[1]
    counts["linalg.matmul.madds"] += a.rows * a.cols * b.cols
    if a.cols and b.cols and a.rows:
        col_nnz = [sum(map(bool, col)) for col in zip(*a.data)]
        row_nnz = [sum(map(bool, row)) for row in b.data]
        counts["linalg.matmul.useful"] += sum(c * r for c, r in zip(col_nnz, row_nnz))


def _kron_counts(counts, args):
    a, b = args[0], args[1]
    counts["linalg.kron.entries"] += a.rows * b.rows * a.cols * b.cols


def _flip_counts(counts, args):
    counts["linalg.flip.entries"] += (args[1] * args[2]) ** 2


def _rref_counts(counts, args):
    counts["linalg.rref.cells"] += args[0].rows * args[0].cols


def _parse_counts(counts, args):
    counts["docio.parse.bytes"] += len(args[0])


COUNTS = ("linalg.matmul.madds", "linalg.matmul.useful", "linalg.kron.entries",
          "linalg.flip.entries", "linalg.rref.cells", "docio.parse.bytes",
          "hopf.grouplike.candidates", "hopf.grouplike.found")
_COUNTERS = {"linalg.matmul": _matmul_counts, "linalg.kron": _kron_counts,
             "linalg.flip": _flip_counts, "linalg.rref": _rref_counts,
             "docio.parse": _parse_counts}


class Tracer:
    """Per-name span aggregates and work counters, and the wrappers that feed them."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.counts = {}
        self._stack = []  # open spans: [name, child_s]
        self._restore = []  # (namespace, attribute, original)

    def reset(self):
        self.stats = {}
        self.counts = {c: 0 for c in COUNTS}

    def span(self, name, fn):
        stack, counter = self._stack, _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if counter is not None or name == "hopf.is_grouplike":
                c0 = perf_counter()
                if counter is not None:
                    counter(self.counts, args)
                elif stack and stack[-1][0] == "hopf.enumerate_grouplikes":
                    self.counts["hopf.grouplike.candidates"] += 1
                self._charge("trace.counting", perf_counter() - c0, 0.0)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._charge(name, dt, frame[1])
            if name == "hopf.enumerate_grouplikes":
                self.counts["hopf.grouplike.found"] += len(result)
            return result

        return wrapper

    def _charge(self, name, dt, child_s):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dt
        s[2] += dt - child_s
        if self._stack:
            self._stack[-1][1] += dt

    def install(self):
        mods = {m: importlib.import_module(f"xmhopf.{m}") for m in MODULES}
        namespaces = [importlib.import_module("xmhopf")] + list(mods.values())
        originals = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr != "main"):
                    originals[id(obj)] = (obj, self.span(f"{short}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        matrix = mods["linalg"].Matrix
        for attr, name in _MATRIX.items():
            raw = matrix.__dict__[attr]
            self._restore.append((matrix, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(matrix, attr, staticmethod(self.span(name, raw.__func__)))
            else:
                setattr(matrix, attr, self.span(name, raw))
        result = mods["cli"].CommandResult
        self._restore.append((result, "render", result.__dict__["render"]))
        result.render = self.span("cli.render", result.__dict__["render"])
        self.reset()

    def uninstall(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore = []

    def fold_into(self, stats, counts, scale):
        """Add this tracer's aggregates to (stats, counts), times scaled by scale."""
        for name, (calls, total, own) in self.stats.items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total * scale
            s[2] += own * scale
        for name, n in self.counts.items():
            counts[name] = counts.get(name, 0) + n


def layer_metrics(st, ct, invocations):
    """The per-layer metrics of one traced round, from folded aggregates."""
    ct = {c: ct.get(c, 0) for c in COUNTS}

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(st.get(n, (0, 0.0, 0.0))[2] for n in names)

    madds = ct["linalg.matmul.madds"]
    out = {
        "linalg.matmul.calls": (calls("linalg.matmul"), "count"),
        "linalg.matmul.self_s": (self_s("linalg.matmul"), "s"),
        "linalg.matmul.madds": (madds, "count"),
        "linalg.matmul.useful_share": (ct["linalg.matmul.useful"] / madds if madds else 0.0,
                                       "share"),
        "linalg.kron.calls": (calls("linalg.kron"), "count"),
        "linalg.kron.self_s": (self_s("linalg.kron"), "s"),
        "linalg.kron.entries": (ct["linalg.kron.entries"], "count"),
        "linalg.flip.entries": (ct["linalg.flip.entries"], "count"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.self_s": (self_s("linalg.rref"), "s"),
        "linalg.rref.cells": (ct["linalg.rref.cells"], "count"),
        "linalg.apply.calls": (calls("linalg.apply"), "count"),
        "linalg.apply.self_s": (self_s("linalg.apply"), "s"),
        "hopf.enumerate_grouplikes.self_s": (self_s("hopf.enumerate_grouplikes"), "s"),
        "hopf.grouplike.candidates": (ct["hopf.grouplike.candidates"], "count"),
        "hopf.grouplike.found": (ct["hopf.grouplike.found"], "count"),
    }
    for name in ("hopf.validate_h_coalgebra", "hopf.validate_bicoalgebra",
                 "hopf.validate_antipode", "hopf.antipode_properties", "hopf.compute_antipode",
                 "xihopf.validate_xi_action", "xihopf.validate_hopf_xi_algebra",
                 "hopfmod.validate_hopf_xi_module", "hopfmod.integral_space",
                 "hopfmod.coinvariants", "hopfmod.structure_iso",
                 "hopfmod.distinguished_grouplike", "repcat.hom_space", "repcat.validate_module"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["xihopf.full_validation_report.calls"] = (
        calls("xihopf.full_validation_report") / invocations, "calls/invocation")
    out["hopfmod.dual_hopf_module.calls"] = (
        calls("hopfmod.dual_hopf_module") / invocations, "calls/invocation")
    out["docio.parse.self_s"] = (self_s("docio.parse"), "s")
    out["docio.parse.total_s"] = (total("docio.parse"), "s")
    out["docio.parse.bytes"] = (ct["docio.parse.bytes"], "bytes")
    out["crossed.validate.self_s"] = (
        self_s("crossed.validate_crossed_module", "crossed.validate_components"), "s")
    out["groups.validate.self_s"] = (
        self_s("groups.validate_group", "groups.validate_hom", "groups.validate_action"), "s")
    out["cli.render_s"] = (total("cli.render"), "s")
    return out

