"""Spans around calls into the public functions of each ``gerbecalc`` layer.

The tracer replaces, for the duration of a traced pass, every module
attribute of the package that binds a traced function (``deligne.big_d`` as
well as ``bicomplex.big_d``, say) and the traced ``Cover`` methods with timing
wrappers, and restores the originals afterwards.  Nothing inside the library
changes.  Spans are kept in memory for a pass, then folded into per-layer
figures and appended to a JSON-lines file outside the timed calls.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import Counter

import gerbecalc
from gerbecalc import bicomplex, builders, cli, cover, deligne, serialize, simplicial

_CLOCK = time.perf_counter


def _nerve_after(tracer, args, kwargs, result):
    if tracer.remember_nerve(args[0], result):
        tracer.counters["cover.nerve_entries"] += len(result)


def _cech_delta_after(tracer, args, kwargs, result):
    cochain, cov = args[0], args[1]
    n = cochain.cech_degree
    lengths = tracer.nerve_lengths(cov)
    tracer.counters["cech_delta.useful"] += lengths.get(n + 1, 0)
    tracer.counters["cech_delta.scanned"] += math.comb(len(cov.sets), n + 1)


def _bytes_after(tracer, args, kwargs, result):
    tracer.counters["serialize.bytes"] += os.path.getsize(args[0])


def _equiv_after(tracer, args, kwargs, result):
    if result.equivalent:
        worst = tracer.maxima.get("deligne.equiv_residual_max", 0.0)
        tracer.maxima["deligne.equiv_residual_max"] = max(worst, result.residual)


# (module, function name, span name, hook run on the result); the CLI's span
# name is None because it is named after the subcommand
_FUNCTIONS = [
    (cli, "main", None, None),
    (builders, "build_minus_one_gerbe", "builders.build", None),
    (builders, "build_monopole", "builders.build", None),
    (builders, "build_gerbopole", "builders.build", None),
    (serialize, "load_datum", "serialize.load", _bytes_after),
    (serialize, "save_datum", "serialize.save", _bytes_after),
    (serialize, "save_witness", "serialize.save", _bytes_after),
    (cover, "check_good_cover", "cover.good_cover", None),
    (cover, "integer_rank", "cover.integer_rank", None),
    (bicomplex, "cech_delta", "bicomplex.cech_delta", _cech_delta_after),
    (bicomplex, "dbar", "bicomplex.dbar", None),
    (bicomplex, "big_d", "bicomplex.big_d", None),
    (simplicial, "exterior_derivative", "simplicial.exterior_derivative", None),
    (simplicial, "fundamental_cycle", "simplicial.fundamental_cycle", None),
    (deligne, "validate_cocycle", "deligne.validate", None),
    (deligne, "gauge_equivalent", "deligne.equiv", _equiv_after),
    (deligne, "gauge_shift", "deligne.shift", None),
    (deligne, "higher_gauge_shift", "deligne.shift", None),
    (deligne, "charge", "deligne.charge", None),
]

# (Cover attribute, span name, hook run on the result)
_COVER_METHODS = [
    ("nerve", "cover.nerve", _nerve_after),
    ("overlap", "cover.overlap", None),
    ("build", "cover.build", None),
]

_MODULES = [gerbecalc, bicomplex, builders, cli, cover, deligne, serialize, simplicial]

# per-layer metric -> (how, span name): "total" sums outermost spans of that
# name, "self" sums span time minus child-span time, "calls" counts spans
SPAN_METRICS = {
    "cover.good_cover_s": ("total", "cover.good_cover"),
    "cover.integer_rank_s": ("total", "cover.integer_rank"),
    "cover.integer_rank_calls": ("calls", "cover.integer_rank"),
    "cover.nerve_s": ("total", "cover.nerve"),
    "cover.overlap_s": ("total", "cover.overlap"),
    "cover.overlap_calls": ("calls", "cover.overlap"),
    "cover.build_s": ("total", "cover.build"),
    "bicomplex.cech_delta_s": ("total", "bicomplex.cech_delta"),
    "bicomplex.big_d_s": ("total", "bicomplex.big_d"),
    "bicomplex.big_d_calls": ("calls", "bicomplex.big_d"),
    "bicomplex.dbar_s": ("total", "bicomplex.dbar"),
    "simplicial.exterior_derivative_s": ("total", "simplicial.exterior_derivative"),
    "simplicial.exterior_derivative_calls": ("calls", "simplicial.exterior_derivative"),
    "simplicial.fundamental_cycle_s": ("total", "simplicial.fundamental_cycle"),
    "deligne.validate_self_s": ("self", "deligne.validate"),
    "deligne.equiv_self_s": ("self", "deligne.equiv"),
    "deligne.shift_s": ("total", "deligne.shift"),
    "deligne.charge_s": ("total", "deligne.charge"),
    "serialize.load_s": ("total", "serialize.load"),
    "serialize.save_s": ("total", "serialize.save"),
    "builders.build_s": ("total", "builders.build"),
    "cli.self_s": ("self", "cli."),
    "cli.demo_s": ("total", "cli.demo"),
}


class Tracer:
    """Installs the wrappers and collects one pass's spans and counters."""

    def __init__(self, out_path):
        self.out_path = out_path
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._lengths: dict[int, tuple] = {}
        self._saved: list[tuple] = []
        self._plain_nerve = cover.Cover.nerve
        self.pass_number = 0

    def remember_nerve(self, cov, nerve) -> bool:
        """Keep the entry count by length of a cover's nerve; True if new."""
        got = self._lengths.get(id(cov))
        if got is not None and got[0] is cov:
            return False
        self._lengths[id(cov)] = (cov, Counter(len(t) for t in nerve))
        return True

    def nerve_lengths(self, cov) -> Counter:
        got = self._lengths.get(id(cov))
        if got is None or got[0] is not cov:
            self.remember_nerve(cov, self._plain_nerve(cov))
            got = self._lengths[id(cov)]
        return got[1]

    def _wrap(self, fn, name, after):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if name is not None else "cli." + str((args[0] if args else kwargs["argv"])[0])
            idx = len(spans)
            spans.append([span_name, _CLOCK(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _CLOCK()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, after in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, after)
            for mod in _MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        # tables of functions, such as the CLI's builders
                        for name_, entry in list(value.items()):
                            if entry is original:
                                self._saved.append((value, name_, entry))
                                value[name_] = wrapper
        for attr, name, after in _COVER_METHODS:
            original = vars(cover.Cover)[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, name, after))
            else:
                wrapper = self._wrap(original, name, after)
            self._saved.append((cover.Cover, attr, original))
            setattr(cover.Cover, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def finish_pass(self) -> dict[str, float]:
        """Fold this pass's spans into per-layer figures and write them out."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        selfs: Counter = Counter()
        calls: Counter = Counter()
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            selfs[name] += dur - child[idx]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                totals[name] += dur
        out = {}
        for metric, (how, name) in SPAN_METRICS.items():
            table = {"total": totals, "self": selfs, "calls": calls}[how]
            if name.endswith("."):
                out[metric] = float(sum(v for k, v in table.items() if k.startswith(name)))
            else:
                out[metric] = float(table.get(name, 0))
        out["cover.nerve_entries"] = float(self.counters["cover.nerve_entries"])
        scanned = self.counters["cech_delta.scanned"]
        out["bicomplex.cech_delta_useful_ratio"] = (
            self.counters["cech_delta.useful"] / scanned if scanned else 0.0
        )
        out["serialize.bytes"] = float(self.counters["serialize.bytes"])
        out["deligne.equiv_residual_max"] = self.maxima.get("deligne.equiv_residual_max", 0.0)
        with open(self.out_path, "a", encoding="utf-8") as handle:
            for name, start, end, parent in spans:
                handle.write(json.dumps([self.pass_number, name, start, end, parent]) + "\n")
        self.pass_number += 1
        spans.clear()
        self.counters.clear()
        self.maxima.clear()
        self._lengths.clear()
        return out
