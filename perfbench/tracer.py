"""Layer spans recorded from outside protcoord.

Tracer.install() replaces each layer function at every name its callers
look it up by (SITES) with a wrapper that records a span: name, start,
end, parent span and op id. uninstall() restores the originals, so an
untraced op runs protcoord's own functions with nothing in between.
Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its children;
calls nest strictly because the caller runs one request at a time.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute, span name). studio.solve_fault and ufcl.solve_fault
# are separate bindings of one function, so each is wrapped.
SITES = (
    ("protcoord.studio", "run_scenario", "studio.run_scenario"),
    ("protcoord.studio", "emit_report", "studio.emit_report"),
    ("protcoord.studio", "load_network", "netmodel.load_network"),
    ("protcoord.studio", "validate", "netmodel.validate"),
    ("protcoord.studio", "solve_fault", "faultcalc.solve_fault"),
    ("protcoord.studio", "size_ufcl", "ufcl.size_ufcl"),
    ("protcoord.studio", "classify_fault_side", "ufcl.classify_fault_side"),
    ("protcoord.studio", "check_pairs", "coordination.check_pairs"),
    ("protcoord.studio", "operate_time", "relaycurve.operate_time"),
    ("protcoord.netmodel", "load_network", "netmodel.load_network"),
    ("protcoord.netmodel", "validate", "netmodel.validate"),
    ("protcoord.ufcl", "solve_fault", "faultcalc.solve_fault"),
    ("protcoord.ufcl", "classify_fault_side", "ufcl.classify_fault_side"),
    ("protcoord.ufcl", "partition_by_tie", "netmodel.partition_by_tie"),
    ("protcoord.faultcalc", "to_per_unit", "netmodel.to_per_unit"),
    ("protcoord.faultcalc", "build_ybus", "faultcalc.build_ybus"),
    ("protcoord.coordination", "operate_time", "relaycurve.operate_time"),
)
LINALG = "faultcalc.linalg"  # np.linalg.solve / inv as faultcalc calls them


class _Forward:
    """A module seen through a few replaced attributes."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.op = -1  # -1 while setting up
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: set[str] = set()  # sites the program no longer has

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            return
        for mod_name, attr, name in SITES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))
        fc = importlib.import_module("protcoord.faultcalc")
        np = fc.np
        self._saved.append((fc, "np", np))
        fc.np = _Forward(np, linalg=_Forward(
            np.linalg, solve=self.wrap(LINALG, np.linalg.solve),
            inv=self.wrap(LINALG, np.linalg.inv)))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def adopt(self, child_spans: list, parent: int) -> None:
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, op in child_spans:
            self.spans.append((name, start, end,
                               parent if par < 0 else par + base, op))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def rollup(spans: list[tuple], root: str):
    """Per-layer figures from the spans of traced ops (op >= 0).

    Returns (layers, ops, below_root_s): layers maps a span name to its
    call count, mean self time per call (us) and call durations (us); ops
    counts root spans; below_root_s is the summed self time of every span
    other than the roots, per op. A name seen only while setting up
    (op < 0) is rolled up from its set-up calls.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    in_ops: dict[str, dict] = {}
    in_setup: dict[str, dict] = {}
    below_root = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        own = (end - start) - child[i]
        st = (in_ops if op >= 0 else in_setup).setdefault(
            name, {"calls": 0, "self_s": 0.0, "incl_us": []})
        st["calls"] += 1
        st["self_s"] += own
        st["incl_us"].append((end - start) * 1e6)
        if op >= 0 and name != root:
            below_root += own
    for name, st in in_setup.items():
        in_ops.setdefault(name, st)
    layers = {name: {"calls": st["calls"],
                     "self_us": st["self_s"] / st["calls"] * 1e6,
                     "incl_us": st["incl_us"]}
              for name, st in in_ops.items()}
    ops = layers[root]["calls"] if root in layers else 0
    return layers, ops, (below_root / ops if ops else 0.0)


def children_per_call(spans: list[tuple], parent_name: str,
                      child_name: str) -> float:
    """Mean number of child_name spans directly below each parent_name."""
    parents = {i for i, s in enumerate(spans)
               if s[0] == parent_name and s[4] >= 0}
    kids = sum(1 for s in spans if s[0] == child_name and s[3] in parents)
    return kids / len(parents) if parents else 0.0


