"""Span tracing of natspec's public functions, from outside the package.

`Tracer.install()` replaces every public function of the layer modules
with a wrapper that records a span (name, start, end, parent), in every
natspec module namespace that binds it, so calls made through
`from .x import f` names are traced too.  `uninstall()` puts the
originals back.  Nothing under src/ is changed.

A span's self time is its duration minus the time its child spans
cover.  A few wrappers also read a counter off the call's arguments or
result; that work is recorded as covered time of the parent, so it
shows as tracing overhead and not as any layer's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from typing import Dict, List

LAYERS = ("cli", "graphs", "closure", "idempotents", "dpoly", "exact",
          "spectra", "certify")

# Per-entry scalar helpers, called up to ten million times a round:
# wrapping them would cost more than the work they do, so their time
# stays in their callers' self time.
UNTRACED = {"exact.scalar_is_zero", "exact.format_scalar", "exact.parse_scalar"}


def _coef_bits(x) -> int:
    """Bit length of an int or Fraction coefficient."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.modules = {
            name: importlib.import_module("natspec." + name) for name in LAYERS
        }
        self.spans: List[list] = []  # [name, start, end, parent, covered]
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {}
        self._saved: List[tuple] = []

    # -- counters read off calls ---------------------------------------

    def _bump(self, key: str, value: int, how: str = "sum") -> None:
        old = self.counters.get(key)
        if how == "max":
            self.counters[key] = value if old is None else max(old, value)
        else:
            self.counters[key] = (old or 0) + value

    def _count(self, name: str, args, result) -> None:
        if name == "closure.generated_double_algebra":
            rounds = getattr(result, "rounds", None)
            if isinstance(rounds, int):
                self._bump("closure.rounds", rounds)
        elif name == "spectra.build_ds_dpoly":
            basis = getattr(result, "basis", None)
            entries = getattr(basis, "entries", None)
            if entries is not None:
                self._bump("idempotents.atoms", len(entries))
            probes = getattr(result, "probes", None)
            if probes is not None:
                self._bump("spectra.probes", len(probes))
            node_count = getattr(self.modules["dpoly"], "node_count", None)
            node_count = getattr(node_count, "__wrapped__", node_count)
            p = getattr(result, "p", None)
            if node_count is not None and p is not None:
                self._bump("dpoly.p_nodes", node_count(p), "max")
        elif name == "dpoly.dpoly_from_json":
            nodes = args[0].get("nodes") if args and isinstance(args[0], dict) else None
            if nodes is not None:
                self._bump("dpoly.p_nodes", len(nodes), "max")
        elif name == "exact.char_poly":
            if result:
                self._bump("exact.char_poly.max_coeff_bits",
                           max(_coef_bits(c) for c in result), "max")

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        counted = name in (
            "closure.generated_double_algebra", "spectra.build_ds_dpoly",
            "dpoly.dpoly_from_json", "exact.char_poly",
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = end = clock()
                if parent >= 0:
                    spans[parent][4] += end - span[1]
            if counted:
                self._count(name, args, result)
                if parent >= 0:
                    spans[parent][4] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def targets(self) -> Dict[int, tuple]:
        """id(function) -> (function, 'layer.name') for the public
        functions each layer module defines."""
        out = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                out[id(obj)] = (obj, name)
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {k: self._wrap(name, fn) for k, (fn, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "natspec" or modname.startswith("natspec.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def has(self, name: str) -> bool:
        layer, attr = name.split(".", 1)
        mod = self.modules.get(layer)
        return mod is not None and isinstance(getattr(mod, attr, None), types.FunctionType)

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, start, end, _parent, covered in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out

    def call_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def dump(self, path: str) -> None:
        """Write the spans, one JSON list per line: name, start, end,
        parent index (-1 for a root), covered time."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
