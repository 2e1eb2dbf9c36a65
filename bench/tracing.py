"""Outside-in tracing of the program's layers.

The tracer wraps public entry points from outside the package: it rebinds
each traced function in every `linkwitt.*` namespace that holds it, and
replaces two kernel methods on their classes.  Calls made through a module
global, a module attribute (`endofield.endomorphism_ring`) or an imported
name all reach the wrapper.  Each call records one span (name, start, end,
parent span, op id) in flat arrays; nothing is written until `dump`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

# (module, public function) pairs, one span per call.  The layers are the
# modules; private helpers are not traced, so their time is the self time of
# the nearest traced caller (the isotropic search lands in witt_reduce).
FUNCTIONS = [
    ("cli", "main"),
    ("cli", "load_input"),
    ("cli", "emit"),
    ("devissage", "witt_reduce"),
    ("devissage", "find_simple_submodule"),
    ("devissage", "isotypic_group"),
    ("seifert", "induced_form_on_subquotient"),
    ("seifert", "find_isomorphism"),
    ("seifert", "hom_space"),
    ("endofield", "endomorphism_ring"),
    ("endofield", "as_number_field"),
    ("endofield", "involution_from_form"),
    ("endofield", "morita_transport"),
    ("wittinv", "invariant_report"),
    ("wittinv", "diagonalize"),
    ("wittinv", "signatures"),
    ("wittinv", "discriminant_class"),
    ("wittinv", "hasse_witt_over_q"),
    ("rational", "minimal_polynomial"),
    ("rational", "factor_rational_poly"),
    ("rational", "real_root_data"),
    ("rational", "solve_or_kernel"),
    ("covering", "sigma_inverse_truncated"),
    ("covering", "blanchfield_pairing"),
    ("covering", "symmetry_witness"),
    ("primitives", "analyze_primitives"),
]

# (module, class, method, span name)
METHODS = [
    ("rational", "QMatrix", "rref", "rational.rref"),
    ("rational", "RowSpace", "add", "rational.rowspace_add"),
]

SPAN_NAMES = [f"{m}.{f}" for m, f in FUNCTIONS] + [n for *_, n in METHODS]


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the part of its interval covered by its
    children (the union of the child intervals, clipped to the parent)."""
    covered = [0.0] * len(starts)
    reach = list(starts)        # end of the covered part of each span
    # children in start order; spans are recorded in that order already
    for i in sorted(range(len(starts)), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        a, b = max(starts[i], reach[p]), min(ends[i], ends[p])
        if b > a:
            covered[p] += b - a
            reach[p] = b
    return [e - s - c for s, e, c in zip(starts, ends, covered)]


class Tracer:
    """Spans of the traced calls, kept in memory."""

    def __init__(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts = {"rational.rref.cells": 0,
                       "rational.rowspace_add.accepted": 0,
                       "covering.symmetry_witness.found": 0}
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = SPAN_NAMES.index(name)
        clock = time.perf_counter
        stack, counts = self._stack, self.counts
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if name == "rational.rref":
                counts["rational.rref.cells"] += args[0].rows * args[0].cols
            elif name == "rational.rowspace_add":
                counts["rational.rowspace_add.accepted"] += bool(result)
            elif name == "covering.symmetry_witness":
                counts["covering.symmetry_witness.found"] += (
                    result is not None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced name in every loaded linkwitt module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "linkwitt"
                                         or n.startswith("linkwitt."))]
        for mod_name, fn_name in FUNCTIONS:
            owner = sys.modules[f"linkwitt.{mod_name}"]
            orig = getattr(owner, fn_name)
            wrapper = self._wrap(orig, f"{mod_name}.{fn_name}")
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"linkwitt.{mod_name}"], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, op_scales=None) -> dict:
        """Self time and call count per traced name, plus the kernel
        counters and ratios.  A span's time is multiplied by the scale of
        its op, when given (the speed factor of run.at_reference_speed)."""
        own = self_times(self.start, self.end, self.parent)
        self_s = [0.0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for nid, op, t in zip(self.name_id, self.op, own):
            self_s[nid] += t * (op_scales[op] if op_scales else 1.0)
            calls[nid] += 1
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.calls"] = calls[i]
        c = self.counts
        out["rational.rref.cells"] = c["rational.rref.cells"]
        adds = out["rational.rowspace_add.calls"]
        out["rational.rowspace_add.accept_ratio"] = (
            c["rational.rowspace_add.accepted"] / adds if adds else 0.0)
        witnesses = out["covering.symmetry_witness.calls"]
        out["covering.witness_found_ratio"] = (
            c["covering.symmetry_witness.found"] / witnesses
            if witnesses else 0.0)
        return out

    def dump(self, directory: str) -> None:
        """Write the spans: one raw array file per column, and an index."""
        os.makedirs(directory, exist_ok=True)
        columns = {"name_id": self.name_id, "start": self.start,
                   "end": self.end, "parent": self.parent, "op": self.op}
        for col, arr in columns.items():
            with open(os.path.join(directory, f"{col}.bin"), "wb") as fh:
                arr.tofile(fh)
        index = {"names": SPAN_NAMES, "spans": len(self.start),
                 "columns": {col: arr.typecode
                             for col, arr in columns.items()},
                 "counts": self.counts}
        with open(os.path.join(directory, "index.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)
