"""Spans around calls into the public functions of each `sal` layer.

Nothing inside `src/sal` is instrumented: `install` replaces, from outside,
each public function of a layer module (and the few public methods that
other layers call) by a wrapper that records a span when the call crosses
from one layer into another.  A call that stays inside its layer records no
span, so a layer's self time is its busy time.  Spans are kept in flat
arrays in memory and written out once, at the end of the run.

A span holds its name, start, end, parent span and the benchmark operation
it belongs to.  Self time is a span's duration minus the time its direct
children cover; children of one span never overlap, because the benchmark
runs one operation at a time on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "catalog", "spectra", "cutoffs", "series", "special",
          "oracles", "asymptotics", "summation", "finite")

# Public methods that other layers call; module-level functions are found
# from each module's __all__.
METHODS = {
    "spectra": {"Spectrum": ("entries", "squared")},
    "cutoffs": {"CutoffFunction": ("evaluate", "f_moment"),
                "SchwartzCutoff": ("evaluate",),
                "IndicatorCutoff": ("evaluate",)},
    "asymptotics": {"AsymptoticExpansion": ("strip_value",)},
}


class Recorder:
    """Spans of one traced pass, in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[tuple[int, str]] = []   # (span id, layer)
        self.current_op = -1
        self.calls: dict[str, int] = {}
        self.terms: dict[str, int] = {}

    def open(self, name: str, layer: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append((sid, layer))
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def layer(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    def count(self, name: str, result) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        terms = getattr(result, "terms_used", None)
        if terms is not None:
            self.terms[name] = self.terms.get(name, 0) + terms

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i, (nid, par, op, a, b) in enumerate(
                    zip(self.name, self.parent, self.op, self.start, self.end)):
                fh.write(f"{i},{par},{op},{self.names[nid]},{a - t0:.9f},{b - t0:.9f}\n")


def self_times(parent, start, end) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct children."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def layer_self_times(rec: Recorder) -> dict[str, float]:
    """Busy time of each layer: the self time of its spans, summed."""
    own = self_times(rec.parent, rec.start, rec.end)
    out = {layer: 0.0 for layer in LAYERS}
    for name, t in zip(rec.span_names(), own.tolist()):
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += t
    return out


def span_seconds(rec: Recorder, name: str) -> float:
    """Summed duration of every span with this name."""
    dur = np.asarray(rec.end) - np.asarray(rec.start)
    ids = np.asarray(rec.name)
    if name not in rec._name_id:
        return 0.0
    return float(dur[ids == rec._name_id[name]].sum())


def _wrap(rec: Recorder, layer: str, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.layer() == layer:
            result = fn(*args, **kwargs)
        else:
            sid = rec.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
        if layer == "series":
            rec.count(name, result)
        elif name == "oracles.catalog_zeta":
            # pole data and values are closures on the returned object
            result.poles = _wrap(rec, "oracles", "oracles.CatalogZeta.poles", result.poles)
            result.value = _wrap(rec, "oracles", "oracles.CatalogZeta.value", result.value)
        return result
    return traced


def install(rec: Recorder):
    """Wrap every public function of every layer; returns an undo list."""
    mods = {layer: importlib.import_module(f"sal.{layer}") for layer in LAYERS}
    holders = list(mods.values()) + [importlib.import_module("sal")]
    originals: dict[int, object] = {}
    for layer, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                originals[id(obj)] = (obj, _wrap(rec, layer, f"{layer}.{attr}", obj))
    undo = []
    # replace the function wherever a layer (or the package) imported it
    for holder in holders:
        for attr, obj in list(vars(holder).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(holder, attr, hit[1])
                undo.append((holder, attr, obj))
    for layer, classes in METHODS.items():
        for cls_name, names in classes.items():
            cls = getattr(mods[layer], cls_name)
            for attr in names:
                fn = cls.__dict__[attr]
                setattr(cls, attr, _wrap(rec, layer, f"{layer}.{cls_name}.{attr}", fn))
                undo.append((cls, attr, fn))
    return undo


def uninstall(undo) -> None:
    for holder, attr, obj in reversed(undo):
        setattr(holder, attr, obj)
