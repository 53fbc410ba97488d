"""Outside-in tracing of mcflow's public functions.

The tracer replaces each traced function with a timing wrapper at every
binding site: the defining module, the package namespace and every module
that bound the name at import (``from .immersion import geometry_fields`` in
``flow`` and ``cli``, the ``curvature`` kernels in ``verify`` and ``sphere``).
The suites are wrapped where ``verify.run_suite`` looks them up, in
``verify.SUITES``.  A function the program no longer has is skipped and
reads as zero calls.

Spans (name, start, end, parent) stay in memory until ``write`` is called.
A span's self time is its duration minus the durations of its children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time

from checks import SUITES

TRACED = {
    "immersion": ("geometry_fields", "mean_curvature_vector", "save_snapshot",
                  "load_snapshot", "integrate", "gauss_curvature_field"),
    "grid": ("pad2", "stencil_d1", "stencil_d2", "shift_positions"),
    "flow": ("run", "step", "diagnostics", "fsigma_integral", "blowup_type2",
             "classify_type", "fit_area_decay", "write_diagnostics_csv",
             "read_diagnostics_csv"),
    "solutions": ("seed_immersion",),
    "sampling": ("pinched_tensors", "sphere_pinched_tensors", "symmetric_tensors",
                 "random_rotations", "rotate_tensors"),
    "curvature": ("batch_reaction_terms", "batch_scalars", "batch_gauss_operator",
                  "batch_adapted_split"),
    "sphere": ("batch_aux_f", "batch_term_II"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)


def _arg(args, kwargs, name, index):
    return kwargs[name] if name in kwargs else args[index]


# What a call of these functions measured, kept beside its span.
NOTES = {
    "immersion.save_snapshot": lambda a, kw, r: os.path.getsize(_arg(a, kw, "path", 1)),
    "immersion.load_snapshot": lambda a, kw, r: os.path.getsize(_arg(a, kw, "path", 0)),
    "immersion.geometry_fields": lambda a, kw, r: sum(
        v.nbytes for v in vars(r).values() if hasattr(v, "nbytes")),
    "sampling.pinched_tensors": lambda a, kw, r: (_arg(a, kw, "count", 1), r.shape[0]),
}


def _suite_samples(args, kwargs, rows):
    return sum(row.samples for row in rows)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent]
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding site under ``mcflow``."""
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules.get(f"mcflow.{module}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if callable(fn):
                    full = f"{module}.{fname}"
                    wrappers[id(fn)] = (fn, self._wrap(full, fn, NOTES.get(full)))
        for modname, mod in list(sys.modules.items()):
            if modname != "mcflow" and not modname.startswith("mcflow."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        suites = getattr(sys.modules.get("mcflow.verify"), "SUITES", None)
        if isinstance(suites, dict):
            for key, fn in list(suites.items()):
                suites[key] = self._wrap(f"verify.{key}", fn, _suite_samples)
                self._patches.append((suites, key, fn))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict[str, dict]:
        """Per-name calls, self and inclusive time (s) and notes of spans[lo:hi]."""
        child = [0] * (hi - lo)
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= lo:
                child[parent - lo] += end - start
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            name, start, end, _ = self.spans[i]
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                        "notes": []})
            acc["calls"] += 1
            acc["incl_s"] += (end - start) * 1e-9
            acc["self_s"] += (end - start - child[i - lo]) * 1e-9
            if i in self.notes:
                acc["notes"].append(self.notes[i])
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")
