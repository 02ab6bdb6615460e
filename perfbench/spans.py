"""Spans around the calls into rcx's layers, kept in memory.

`Tracer.install` replaces each traced function at every module attribute
of the rcx package that binds it (rcx.hiding, rcx.relaxations and
rcx.separation import by name, so patching the defining module alone
would miss their calls). Every call records its layer name, start, end
and parent span; a layer's self time is its spans' durations minus the
durations of their direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# layer name -> (defining module, function names); a name of the form
# "Class.method" patches the class attribute
LAYERS = {
    "linprog.solve_lp": ("rcx.linprog", ["solve_lp"]),
    "linprog.conv_membership": ("rcx.linprog", ["conv_membership"]),
    "linprog.segment_hits_hull": ("rcx.linprog", ["segment_hits_hull"]),
    "linprog.strict_separation": ("rcx.linprog", ["strict_separation"]),
    "linprog.recession_nontrivial": ("rcx.linprog", ["recession_nontrivial"]),
    "relaxations.bounding_box": ("rcx.relaxations", ["bounding_box"]),
    "relaxations.enumerate_lattice": ("rcx.relaxations", ["enumerate_lattice"]),
    "relaxations.irredundant_count": ("rcx.relaxations", ["irredundant_count"]),
    # generate() dispatches through the FAMILIES table, which keeps the
    # unwrapped generators, so a generate() call is one span; direct calls
    # such as bound_report's perm(n) are spans of their own
    "families.generate": ("rcx.families",
                          ["generate", "cube", "simplex", "even", "odd", "perm",
                           "diff", "stsp", "atsp", "conn", "spt", "forests",
                           "arb", "branch", "tjoins"]),
    "families.digest": ("rcx.families", ["PointSet.digest"]),
    "rational.affine_hull": ("rcx.rational", ["affine_hull"]),
    "fileio.write_doc": ("rcx.fileio", ["write_doc"]),
    "fileio.read_doc": ("rcx.fileio", ["read_doc"]),
    "hiding.verify_hiding": ("rcx.hiding", ["verify_hiding"]),
    "hiding.max_hiding_in_box": ("rcx.hiding", ["max_hiding_in_box"]),
    "separation.bound_report": ("rcx.separation", ["bound_report"]),
    "separation.jeroslow_index": ("rcx.separation", ["jeroslow_index"]),
    "separation.rationalize_halfspace": ("rcx.separation", ["rationalize_halfspace"]),
    "separation.conflict_clique_bound": ("rcx.separation", ["conflict_clique_bound"]),
    "cli.run": ("rcx.cli", ["run"]),
}


def _size(args, kwargs, out):
    return len(out)


def _first_arg_size(args, kwargs, out):
    return len(args[0])


def _verdict(args, kwargs, out):
    return 1 if out[0] else 0


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# layer -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "families.generate": ("points", _size),
    "rational.affine_hull": ("points", _first_arg_size),
    "relaxations.enumerate_lattice": ("points", _size),
    "fileio.write_doc": ("bytes", _file_bytes),
    "linprog.segment_hits_hull": ("hits", _verdict),
    "linprog.conv_membership": ("inside", _verdict),
}


class Tracer:
    """Span recorder. Spans are [layer, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []

    def wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                name, measure = counter
                key = (layer, name)
                self.counts[key] = self.counts.get(key, 0) + measure(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every traced function at every rcx attribute that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rcx" or name.startswith("rcx."))]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(sys.modules[home], cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self.wrap(layer, orig))
                    continue
                orig = getattr(sys.modules[home], name)
                wrapped = self.wrap(layer, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def layer_totals(self):
        """layer -> {"calls", "self_s", counters...} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, start, end, _), inner in zip(self.spans, child_time):
            t = totals[layer]
            t["calls"] += 1
            t["self_s"] += end - start - inner
        for (layer, name), value in self.counts.items():
            totals[layer][name] = value
        return totals

    def write(self, path):
        """Write the spans as JSON: one [name, start, end, parent] row each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
